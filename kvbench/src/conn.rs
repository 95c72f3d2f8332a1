//! A framed loopback connection driven directly by a load thread, so
//! request encoding, the socket write and response decoding can be timed
//! as separate calls.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

/// How long [`Conn::next_frame`] may wait for bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// Block, at most this long. Socket timeouts have the kernel's tick
    /// as their resolution, so use this only for long waits.
    Block(Duration),
    /// Never block.
    Poll,
}

/// One client connection with its own receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    wait: Option<Wait>,
}

impl Conn {
    /// Connects with Nagle off, as the server's own sockets are.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            head: 0,
            tail: 0,
            wait: None,
        })
    }

    /// Writes one whole request frame.
    pub fn write(&mut self, mut frame: &[u8]) -> io::Result<()> {
        while !frame.is_empty() {
            match self.stream.write(frame) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => frame = &frame[n..],
                // a polling connection's send buffer is full: the server
                // is behind, so give it the processor
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The payload range of the next complete response frame, waiting for
    /// more bytes as `wait` allows. `Ok(None)` means none arrived in time.
    /// Read the payload with [`Conn::payload`] before the next call.
    pub fn next_frame(&mut self, wait: Wait) -> io::Result<Option<Range<usize>>> {
        loop {
            if let Some(r) = self.complete_frame()? {
                return Ok(Some(r));
            }
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            if self.tail == self.buf.len() {
                let len = self.buf.len();
                self.buf.resize(len * 2, 0);
            }
            if self.wait != Some(wait) {
                match wait {
                    Wait::Block(d) => {
                        self.stream.set_nonblocking(false)?;
                        self.stream.set_read_timeout(Some(d))?;
                    }
                    Wait::Poll => self.stream.set_nonblocking(true)?,
                }
                self.wait = Some(wait);
            }
            match self.stream.read(&mut self.buf[self.tail..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.tail += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes of a payload range returned by [`Conn::next_frame`].
    pub fn payload(&self, r: Range<usize>) -> &[u8] {
        &self.buf[r]
    }

    fn complete_frame(&mut self) -> io::Result<Option<Range<usize>>> {
        let avail = self.tail - self.head;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.head..self.head + 4]
            .try_into()
            .expect("four bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len == 0 || len > lsm_server::MAX_FRAME_BYTES {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "bad response frame length",
            ));
        }
        if avail < 4 + len {
            if self.head + 4 + len > self.buf.len() {
                let need = (4 + len).max(self.buf.len());
                self.buf.resize(self.head + need, 0);
            }
            return Ok(None);
        }
        let start = self.head + 4;
        self.head = start + len;
        Ok(Some(start..start + len))
    }
}
