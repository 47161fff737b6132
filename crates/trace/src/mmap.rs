//! Read-only memory-mapped trace files.
//!
//! Reading a multi-megabyte trace file with `fs::read_to_string` copies
//! every byte through a growing heap buffer before the first line is even
//! lexed. A private read-only `mmap` hands the byte lexer the kernel's
//! page cache directly — no copy, no allocation proportional to file size.
//!
//! No `lomon` command maps files any more: a mapped file that is
//! truncated while it is read raises `SIGBUS`, so every command reads
//! its trace files in 64 KiB reads through the trace reader
//! ([`LineReader`](crate::LineReader)). This type stays for the
//! benchmark's layer timings.
//!
//! The mapping is advisory, not load-bearing: on targets without the
//! expected `mmap(2)` ABI (anything but 64-bit Unix) or when the syscall
//! fails (special files, exotic filesystems), [`MappedFile::open`] falls
//! back to an ordinary heap read with identical observable behavior.
//! Callers should treat the bytes as a snapshot: mapped memory reflects
//! concurrent writers, so replaying a file that is still being appended
//! to can observe torn lines — the same caveat `tail -f` has.
//!
//! This is the one module in the workspace that needs `unsafe` (the
//! syscall and the reborrow of the mapped region); the workspace-level
//! `deny(unsafe_code)` is re-allowed here alone, and every unsafe block
//! carries its safety argument.
#![allow(unsafe_code)]

use std::io;
use std::path::Path;

/// The contents of one trace file, memory-mapped read-only when the
/// platform allows it and heap-backed otherwise.
///
/// # Example
///
/// ```no_run
/// use lomon_trace::MappedFile;
/// let file = MappedFile::open("trace.txt".as_ref()).expect("readable");
/// let bytes: &[u8] = file.bytes();
/// ```
#[derive(Debug)]
pub struct MappedFile {
    data: MapData,
}

#[derive(Debug)]
enum MapData {
    /// A live `mmap(2)` region, unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped { ptr: *mut u8, len: usize },
    /// Heap fallback (empty files, non-Unix targets, failed mappings).
    Owned(Vec<u8>),
}

impl MappedFile {
    /// Map `path` read-only, falling back to a heap read when mapping is
    /// unavailable.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be opened or read.
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        sys::open(path)
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapData::Mapped { ptr, len } => {
                // SAFETY: `ptr` came from a successful PROT_READ
                // MAP_PRIVATE mmap of exactly `len` bytes, is unmapped
                // only in `drop`, and the borrow of `self` keeps the
                // mapping alive for the slice's lifetime.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            MapData::Owned(bytes) => bytes,
        }
    }

    /// Number of bytes in the file.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MappedFile {
    fn drop(&mut self) {
        if let MapData::Mapped { ptr, len } = self.data {
            // SAFETY: the pair was returned by a successful mmap and is
            // unmapped exactly once; failure leaks the mapping, which is
            // harmless.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    use super::{MapData, MappedFile};

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    // Minimal hand-rolled binding: std already links libc on every Unix
    // target, and on 64-bit Unix `size_t`/`off_t` are the word-sized
    // integers used here. Vendoring is offline-only in this workspace,
    // so a `libc` crate dependency is not an option.
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        pub(super) fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    pub(super) fn open(path: &Path) -> io::Result<MappedFile> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            // mmap rejects zero-length mappings; an empty heap buffer is
            // observably identical.
            return Ok(MappedFile {
                data: MapData::Owned(Vec::new()),
            });
        }
        let Ok(len) = usize::try_from(len) else {
            return Ok(MappedFile {
                data: MapData::Owned(std::fs::read(path)?),
            });
        };
        // SAFETY: plain read-only private mapping of a file we hold open;
        // all arguments are well-formed for the 64-bit Unix mmap ABI and
        // the result is checked against MAP_FAILED below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            // Mapping failed (pipe, device, exhausted address space…):
            // degrade gracefully to a heap read.
            return Ok(MappedFile {
                data: MapData::Owned(std::fs::read(path)?),
            });
        }
        // Closing `file` here is fine: a mapping keeps its own reference
        // to the underlying object.
        Ok(MappedFile {
            data: MapData::Mapped { ptr, len },
        })
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod sys {
    use std::io;
    use std::path::Path;

    use super::{MapData, MappedFile};

    pub(super) fn open(path: &Path) -> io::Result<MappedFile> {
        Ok(MappedFile {
            data: MapData::Owned(std::fs::read(path)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_real_file_contents() {
        let dir = std::env::temp_dir().join(format!("lomon-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.txt");
        let body = "10ns in a\n20ns out b\nend 99ns\n";
        std::fs::write(&path, body).expect("write");
        let mapped = MappedFile::open(&path).expect("maps");
        assert_eq!(mapped.bytes(), body.as_bytes());
        assert_eq!(mapped.len(), body.len());
        assert!(!mapped.is_empty());
        drop(mapped);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_is_empty_slice() {
        let dir = std::env::temp_dir().join(format!("lomon-mmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("empty.txt");
        std::fs::write(&path, b"").expect("write");
        let mapped = MappedFile::open(&path).expect("opens");
        assert!(mapped.is_empty());
        assert_eq!(mapped.bytes(), b"");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_propagates_io_error() {
        let err = MappedFile::open(Path::new("/nonexistent/lomon-trace")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
