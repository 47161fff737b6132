//! Incremental newline-delimited frame decoding over partial reads.
//!
//! A TCP stream delivers bytes in arbitrary chunks: a frame (one
//! newline-terminated line) can arrive torn across many reads, glued to
//! its neighbours, or never completed at all. [`FrameDecoder`] is the
//! reusable boundary between raw socket reads and line-oriented parsing:
//! feed it whatever [`push`](FrameDecoder::push) chunks arrive and drain
//! complete frames with [`next_frame`](FrameDecoder::next_frame).
//!
//! The decoder is deliberately defensive — it backs every streaming
//! surface (`lomon check` on trace files, `lomon watch` on stdin, `lomon
//! serve` on sockets), where one input must not be able to grow memory
//! without bound. Frames longer than the cap ([`MAX_FRAME_BYTES`] on every
//! surface) are not buffered:
//! the pending bytes are discarded the moment they exceed the cap, an
//! [`Frame::Oversized`] notice is surfaced exactly once, and the decoder
//! silently resynchronizes at the next newline.

/// The frame cap of the streaming surfaces: the longest line `lomon
/// check`, `lomon watch` and `lomon serve` accept (64 KiB).
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// One decoded frame.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete line, without its `\n` terminator (a trailing `\r` is
    /// also stripped, so CRLF clients decode identically).
    Line(&'a [u8]),
    /// A frame exceeded the decoder's cap. `seen` is how many bytes of it
    /// had arrived when the cap tripped — a lower bound on the frame's
    /// true length, whose remaining bytes are discarded unreported.
    Oversized {
        /// Bytes of the offending frame observed before it was dropped.
        seen: usize,
    },
}

/// An incremental line framer with a hard per-frame byte cap.
///
/// ```
/// use lomon_trace::frame::{Frame, FrameDecoder};
///
/// let mut dec = FrameDecoder::new(1024);
/// dec.push(b"{\"time\":\"1ns\",\"na"); // torn mid-frame
/// assert_eq!(dec.next_frame(), None);
/// dec.push(b"me\":\"x\"}\n{\"end\"");
/// assert_eq!(
///     dec.next_frame(),
///     Some(Frame::Line(br#"{"time":"1ns","name":"x"}"#.as_slice()))
/// );
/// assert_eq!(dec.partial_len(), 6); // the torn tail is still pending
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix: bytes before `start` have been delivered.
    start: usize,
    /// Scan cursor: bytes before `scan` are known newline-free.
    scan: usize,
    /// End of the complete lines: just past the last `\n` pushed.
    complete: usize,
    max_frame: usize,
    /// Mid-discard of an oversized frame: swallow bytes up to the next
    /// newline without reporting them again.
    skipping: bool,
    /// Lines and bytes consumed since the last [`FrameDecoder::take_counts`].
    lines: u64,
    bytes: u64,
    /// Where [`FrameDecoder::end_input`] put the `\n` that ends an
    /// unterminated last line: a byte of no input, never counted.
    synthetic: Option<usize>,
}

impl FrameDecoder {
    /// A decoder that refuses to buffer more than `max_frame` bytes for
    /// any single frame.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            scan: 0,
            complete: 0,
            max_frame,
            skipping: false,
            lines: 0,
            bytes: 0,
            synthetic: None,
        }
    }

    /// Append one chunk of raw bytes, as read off the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing: the buffer then
        // stays bounded by the cap plus one read chunk, however long the
        // connection lives.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.scan -= self.start;
            self.complete = self.complete.saturating_sub(self.start);
            self.synthetic = self.synthetic.map(|at| at - self.start);
            self.start = 0;
        }
        if let Some(last) = bytes.iter().rposition(|&b| b == b'\n') {
            self.complete = self.buf.len() + last + 1;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, if one is buffered. Returns `None` when
    /// every buffered byte belongs to a still-incomplete frame — push more
    /// and ask again.
    pub fn next_frame(&mut self) -> Option<Frame<'_>> {
        loop {
            match find_newline(&self.buf[self.scan..]) {
                Some(pos) => {
                    let nl = self.scan + pos;
                    let line_start = self.start;
                    self.advance(nl + 1);
                    if self.skipping {
                        // The tail of a frame already reported oversized.
                        self.skipping = false;
                        continue;
                    }
                    self.lines += 1;
                    let mut line = &self.buf[line_start..nl];
                    if line.last() == Some(&b'\r') {
                        line = &line[..line.len() - 1];
                    }
                    if line.len() > self.max_frame {
                        return Some(Frame::Oversized { seen: line.len() });
                    }
                    return Some(Frame::Line(line));
                }
                None => {
                    if self.skipping {
                        // The runaway frame is still arriving: drop its
                        // bytes as they come instead of holding them
                        // until its newline.
                        self.advance(self.buf.len());
                    } else {
                        // A trailing `\r` may yet be a CRLF's, which the
                        // frame would not count.
                        let cr = self.buf[self.start..].last() == Some(&b'\r');
                        let pending = self.buf.len() - self.start - usize::from(cr);
                        if pending > self.max_frame {
                            // Stop buffering the runaway frame *now* — the
                            // cap, not the client, bounds memory.
                            self.advance(self.buf.len());
                            self.skipping = true;
                            self.lines += 1;
                            return Some(Frame::Oversized { seen: pending });
                        }
                    }
                    self.scan = self.buf.len();
                    return None;
                }
            }
        }
    }

    /// The input has ended: a last line without a `\n` still counts, so
    /// end it as if one followed, without counting a byte for it.
    pub fn end_input(&mut self) {
        if self.partial_len() > 0 && self.buf.last() != Some(&b'\n') {
            self.push(b"\n");
            self.synthetic = Some(self.buf.len() - 1);
        }
    }

    /// Bytes buffered for a frame that has not (yet) completed. Nonzero
    /// after end-of-stream means the peer disconnected mid-frame — a torn
    /// final frame the caller should treat as a protocol fault.
    pub fn partial_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The complete lines buffered and not yet handed out, each with its
    /// `\n`, without the frame still arriving. A caller may decode a prefix
    /// of them itself and [`consume`](FrameDecoder::consume) it. Empty
    /// while the tail of an oversized frame is being dropped: only
    /// [`next_frame`](FrameDecoder::next_frame) gets past it.
    pub fn buffered(&self) -> &[u8] {
        if self.skipping || self.start >= self.complete {
            return &[];
        }
        &self.buf[self.start..self.complete]
    }

    /// Mark the first `len` bytes of [`buffered`](FrameDecoder::buffered)
    /// consumed: `lines` whole lines, the last one ending at a `\n`.
    ///
    /// # Panics
    ///
    /// Panics if `len` bytes are not complete buffered lines.
    pub fn consume(&mut self, lines: u64, len: usize) {
        let end = self.start + len;
        assert!(
            len == 0 || (len <= self.buffered().len() && self.buf[end - 1] == b'\n'),
            "only whole buffered lines can be consumed"
        );
        self.advance(end);
        self.lines += lines;
    }

    /// The lines and bytes consumed since the last call: every frame handed
    /// out (an oversized one counts once), every line
    /// [`consume`](FrameDecoder::consume)d, and every byte moved past —
    /// delivered, dropped, or a stripped `\r` and `\n`.
    pub fn take_counts(&mut self) -> (u64, u64) {
        let counts = (self.lines, self.bytes);
        (self.lines, self.bytes) = (0, 0);
        counts
    }

    /// Move the consumed prefix's end to `to`, counting the bytes passed
    /// (but not a synthetic `\n`). Every byte before `to` is known to be
    /// newline-free or consumed, so the scan cursor moves with it.
    fn advance(&mut self, to: usize) {
        let synthetic = self.synthetic.take_if(|at| *at < to).is_some();
        self.bytes += (to - self.start - usize::from(synthetic)) as u64;
        self.start = to;
        self.scan = self.scan.max(to);
    }
}

/// Offset of the first `\n` in `hay`, found by the standard library's
/// `memchr`-backed byte search rather than a byte-at-a-time scan.
pub(crate) fn find_newline(hay: &[u8]) -> Option<usize> {
    let read = std::io::BufRead::skip_until(&mut &hay[..], b'\n').ok()?;
    (read > 0 && hay[read - 1] == b'\n').then(|| read - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain the decoder into owned lines (oversized frames as `Err`).
    fn drain(dec: &mut FrameDecoder) -> Vec<Result<Vec<u8>, usize>> {
        let mut out = Vec::new();
        while let Some(frame) = dec.next_frame() {
            out.push(match frame {
                Frame::Line(l) => Ok(l.to_vec()),
                Frame::Oversized { seen } => Err(seen),
            });
        }
        out
    }

    #[test]
    fn reassembles_frames_across_arbitrary_tears() {
        let input = b"alpha\nbeta\r\ngamma\n";
        // Every split point must decode identically.
        for cut in 0..input.len() {
            let mut dec = FrameDecoder::new(64);
            dec.push(&input[..cut]);
            let mut lines = drain(&mut dec);
            dec.push(&input[cut..]);
            lines.extend(drain(&mut dec));
            assert_eq!(
                lines,
                vec![
                    Ok(b"alpha".to_vec()),
                    Ok(b"beta".to_vec()),
                    Ok(b"gamma".to_vec())
                ],
                "cut at {cut}"
            );
            assert_eq!(dec.partial_len(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_matches_one_shot() {
        let input = b"one\n\ntwo\n";
        let mut dec = FrameDecoder::new(8);
        let mut lines = Vec::new();
        for &b in input.iter() {
            dec.push(&[b]);
            lines.extend(drain(&mut dec));
        }
        assert_eq!(
            lines,
            vec![Ok(b"one".to_vec()), Ok(b"".to_vec()), Ok(b"two".to_vec())]
        );
    }

    #[test]
    fn end_input_frames_the_last_line_without_counting_a_byte() {
        let mut dec = FrameDecoder::new(8);
        dec.end_input();
        assert_eq!(dec.partial_len(), 0, "nothing pending: a no-op");
        dec.push(b"one\ntwo");
        assert_eq!(drain(&mut dec), vec![Ok(b"one".to_vec())]);
        dec.end_input();
        dec.end_input();
        assert_eq!(drain(&mut dec), vec![Ok(b"two".to_vec())]);
        assert_eq!(dec.take_counts(), (2, 7));
        // The tail of an oversized frame ends there too, counted once.
        dec.push(b"toolongtail");
        assert_eq!(dec.next_frame(), Some(Frame::Oversized { seen: 11 }));
        dec.push(b"more");
        dec.end_input();
        assert_eq!(drain(&mut dec), vec![]);
        assert_eq!(dec.take_counts(), (1, 15));
    }

    #[test]
    fn oversized_frame_is_dropped_reported_once_and_resyncs() {
        let mut dec = FrameDecoder::new(4);
        dec.push(b"toolong");
        // Cap already exceeded mid-frame: reported before the newline even
        // arrives, and the pending bytes are gone.
        assert_eq!(dec.next_frame(), Some(Frame::Oversized { seen: 7 }));
        assert_eq!(dec.partial_len(), 0);
        dec.push(b"morejunk\nok\n");
        // The tail of the oversized frame is swallowed silently; decoding
        // resumes at the next frame.
        assert_eq!(drain(&mut dec), vec![Ok(b"ok".to_vec())]);
    }

    #[test]
    fn complete_frame_over_cap_reports_true_length() {
        let mut dec = FrameDecoder::new(4);
        dec.push(b"12345\nok\n");
        assert_eq!(
            drain(&mut dec),
            vec![Err(5), Ok(b"ok".to_vec())],
            "a frame that arrives whole reports its exact length"
        );
    }

    #[test]
    fn a_crlf_line_at_the_cap_passes_torn_or_whole() {
        let input = b"1234\r\nok\n";
        for cut in 0..input.len() {
            let mut dec = FrameDecoder::new(4);
            dec.push(&input[..cut]);
            let mut lines = drain(&mut dec);
            dec.push(&input[cut..]);
            lines.extend(drain(&mut dec));
            assert_eq!(
                lines,
                vec![Ok(b"1234".to_vec()), Ok(b"ok".to_vec())],
                "cut at {cut}"
            );
        }
        // One byte more is a runaway frame, dropped up to its `\r` and
        // asked again before the rest arrives.
        let mut dec = FrameDecoder::new(4);
        dec.push(b"12345\r");
        assert_eq!(dec.next_frame(), Some(Frame::Oversized { seen: 5 }));
        assert_eq!(dec.next_frame(), None);
        dec.push(b"\nok\n");
        assert_eq!(drain(&mut dec), vec![Ok(b"ok".to_vec())]);
    }

    #[test]
    fn decoded_prefixes_are_consumed_and_counted_with_frames() {
        let mut dec = FrameDecoder::new(8);
        dec.push(b"one\r\ntwo\nthr");
        assert_eq!(dec.buffered(), b"one\r\ntwo\n", "complete lines only");
        dec.consume(1, 5);
        assert_eq!(dec.buffered(), b"two\n");
        assert_eq!(drain(&mut dec), vec![Ok(b"two".to_vec())]);
        assert_eq!(dec.buffered(), b"");
        dec.push(b"ee\n0123456789\nok\n");
        assert_eq!(
            drain(&mut dec),
            vec![Ok(b"three".to_vec()), Err(10), Ok(b"ok".to_vec())]
        );
        assert_eq!(dec.take_counts(), (5, 29), "every line and byte once");
        assert_eq!(dec.take_counts(), (0, 0));

        // A frame dropped while it arrives counts once, with every byte.
        dec.push(b"0123456789");
        assert_eq!(dec.next_frame(), Some(Frame::Oversized { seen: 10 }));
        dec.push(b"abc\nok\n");
        assert_eq!(dec.buffered(), b"", "the dropped tail is not a line");
        assert_eq!(drain(&mut dec), vec![Ok(b"ok".to_vec())]);
        assert_eq!(dec.take_counts(), (2, 17));
    }

    #[test]
    fn torn_tail_is_visible_as_partial() {
        let mut dec = FrameDecoder::new(64);
        dec.push(b"done\nhalf");
        assert_eq!(drain(&mut dec), vec![Ok(b"done".to_vec())]);
        assert_eq!(dec.partial_len(), 4);
    }

    #[test]
    fn long_lived_buffer_is_compacted() {
        let mut dec = FrameDecoder::new(64);
        for _ in 0..10_000 {
            dec.push(b"0123456789abcdef\n");
            assert!(dec.next_frame().is_some());
            // The consumed prefix is reclaimed: the buffer never grows
            // past a few frames even over an unbounded connection.
            assert!(dec.buf.capacity() < 64 * 1024);
        }
    }
}
