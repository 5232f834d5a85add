//! Output staging for the workspace's serialisers. A writer appends each
//! record whole to a reused buffer of about [`CHUNK`] bytes, and the
//! output sees only whole chunks, plus the remainder on
//! [`Stage::finish`]. An unbuffered `File` therefore takes one syscall
//! per 64 KiB rather than one per fragment, and a record costs plain
//! appends to a buffer that stays cache-resident. [`digits`] is the one
//! number formatter those appends use.

use std::io::{self, Write};

/// Bytes handed to the output per write: every write but the last is a
/// whole multiple of this.
pub const CHUNK: usize = 64 * 1024;

/// Headroom above [`CHUNK`] so a record appended just under the spill
/// mark does not regrow the buffer.
const SLACK: usize = 4 * 1024;

/// A staging buffer in front of an output. Append records through
/// [`Stage::buf`] (or `write!`, as a [`Write`]), call [`Stage::spill`]
/// after each, and [`Stage::finish`] at the end. A stage dropped without
/// `finish` (say, on an error path) has handed the output only whole
/// chunks, and discards the rest.
pub struct Stage<W: Write> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> Stage<W> {
    /// An empty stage in front of `out`.
    pub fn new(out: W) -> Stage<W> {
        Stage {
            out,
            buf: Vec::with_capacity(CHUNK + SLACK),
        }
    }

    /// The staging buffer, for appending whole records.
    #[inline]
    pub fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Hands the output every whole chunk staged so far.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the output.
    #[inline]
    pub fn spill(&mut self) -> io::Result<()> {
        if self.buf.len() < CHUNK {
            return Ok(());
        }
        self.spill_chunks()
    }

    #[cold]
    #[inline(never)]
    fn spill_chunks(&mut self) -> io::Result<()> {
        let whole = self.buf.len() - self.buf.len() % CHUNK;
        self.out.write_all(&self.buf[..whole])?;
        self.buf.drain(..whole);
        Ok(())
    }

    /// Hands the output the rest of the stage.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the output.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)
    }
}

impl<W: Write> Write for Stage<W> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        self.spill()?;
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        self.out.flush()
    }
}

/// `"00" "01" … "99"`: the decimal digit pairs.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `n` in base `RADIX`, 10 or 16 (lower-case digits), as `{}` /
/// `{:x}` would. The digits go into a fixed 20-byte window at the end of
/// `buf`, which is then truncated to their count: no `fmt` machinery and
/// no variable-length copy.
#[inline]
pub fn digits<const RADIX: u64>(buf: &mut Vec<u8>, n: u64) {
    const { assert!(RADIX == 10 || RADIX == 16) };
    let width = if RADIX == 16 {
        (67 - (n | 1).leading_zeros() as usize) / 4
    } else {
        n.checked_ilog10().map_or(1, |log| log as usize + 1)
    };
    let start = buf.len();
    buf.extend_from_slice(&[0; 20]);
    let window = &mut buf[start..start + width];
    let mut rest = n;
    if RADIX == 16 {
        for digit in window.iter_mut().rev() {
            *digit = b"0123456789abcdef"[(rest & 0xf) as usize];
            rest >>= 4;
        }
    } else {
        // Two digits per division, from a table of the 100 pairs.
        let mut end = width;
        while end >= 2 {
            let pair = (rest % 100) as usize * 2;
            rest /= 100;
            window[end - 2..end].copy_from_slice(&PAIRS[pair..pair + 2]);
            end -= 2;
        }
        if end == 1 {
            window[0] = b'0' + rest as u8;
        }
    }
    buf.truncate(start + width);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_match_std_formatting() {
        let mut edges = vec![
            0,
            9,
            10,
            15,
            16,
            99,
            100,
            0xff,
            1 << 32,
            (1 << 53) + 1,
            u64::MAX,
        ];
        edges.extend((0..64).flat_map(|bit| [(1u64 << bit) - 1, 1 << bit]));
        edges.extend(
            (1..20)
                .map(|e| 10u64.pow(e) - 1)
                .chain((1..20).map(|e| 10u64.pow(e))),
        );
        for n in edges {
            let (mut dec, mut hex) = (b"x".to_vec(), Vec::new());
            digits::<10>(&mut dec, n);
            digits::<16>(&mut hex, n);
            assert_eq!(dec, format!("x{n}").into_bytes());
            assert_eq!(hex, format!("{n:x}").into_bytes());
        }
    }

    /// Records one `write` call per invocation, accepting everything.
    struct Calls(Vec<usize>);

    impl Write for Calls {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.len());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn output_sees_whole_chunks_then_the_rest() {
        let mut calls = Calls(Vec::new());
        let mut stage = Stage::new(&mut calls);
        for i in 0..50_000u64 {
            let buf = stage.buf();
            buf.extend_from_slice(b"record ");
            digits::<10>(buf, i);
            buf.push(b'\n');
            stage.spill().unwrap();
        }
        stage.finish().unwrap();
        let total: usize = calls.0.iter().sum();
        let (last, whole) = calls.0.split_last().unwrap();
        assert!(whole.iter().all(|&n| n == CHUNK), "{whole:?}");
        assert_eq!(*last, total % CHUNK);
        assert_eq!(calls.0.len(), total / CHUNK + 1);
    }

    #[test]
    fn an_oversized_record_spills_in_one_write() {
        let mut calls = Calls(Vec::new());
        let mut stage = Stage::new(&mut calls);
        stage.buf().resize(CHUNK * 3 + 5, b'a');
        stage.spill().unwrap();
        stage.finish().unwrap();
        assert_eq!(calls.0, [CHUNK * 3, 5]);
    }
}
