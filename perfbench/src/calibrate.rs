//! The host-speed probe: a fixed piece of work shaped like trace ingest,
//! built on nothing from the repository, so no change to `lomon` moves its
//! time. `run.py` times it right before and right after every surface
//! sample; the ratio of a sample to the probes around it removes what other
//! tenants of a shared host add to both.
//!
//! The work: render ~4 MiB of trace-like text into a fresh buffer (growth,
//! page faults, integer formatting), then scan it twice the way a decoder
//! does — digits into a time, the name FNV-hashed into a 4096-slot count
//! table — appending one record per line to a fresh event buffer.

use std::io::Write as _;

const TEXT_BYTES: usize = 4 << 20;
const PASSES: u32 = 2;

/// Run the probe once; the checksum is the same on every run.
pub fn probe() -> u64 {
    let mut text = Vec::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut t: u64 = 0;
    while text.len() < TEXT_BYTES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += 1 + x % 20;
        let class = b"abcs"[(x >> 8) as usize % 4] as char;
        let _ = writeln!(text, "{t}ns in p{}_{class}", x % 50);
    }
    let mut counts = vec![0u32; 4096];
    let mut events: Vec<(u64, u32)> = Vec::new();
    for _ in 0..PASSES {
        events.clear();
        let (mut time, mut hash, mut in_name) = (0u64, FNV_OFFSET, false);
        for &b in &text {
            match b {
                b'0'..=b'9' if !in_name => time = time * 10 + u64::from(b - b'0'),
                b'\n' => {
                    let slot = (hash & 4095) as usize;
                    counts[slot] += 1;
                    events.push((time, counts[slot]));
                    (time, hash, in_name) = (0, FNV_OFFSET, false);
                }
                b' ' => {}
                _ => {
                    in_name = true;
                    hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
            }
        }
    }
    events
        .iter()
        .fold(0u64, |acc, &(time, n)| acc.rotate_left(5) ^ time ^ u64::from(n))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

#[cfg(test)]
mod tests {
    #[test]
    fn probe_is_deterministic() {
        assert_eq!(super::probe(), super::probe());
    }
}
