//! Blocking TCP client for the `deepod serve` wire protocol — the single
//! client implementation shared by the repo benchmark and the
//! integration tests, so there is exactly one encoder/decoder on the
//! client side of the wire ([`crate::protocol`] is the other half).

use crate::protocol::{WireRequest, WireResponse};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking connection to a `deepod serve --listen` server.
///
/// Requests and responses are matched by correlation id; the server
/// answers each client's frames in submission order, so the simple
/// lock-step [`ServeClient::send_batch`] never deadlocks as long as the
/// batch fits the server's per-connection in-flight cap. For pipelined
/// (open-loop) traffic, [`ServeClient::split`] hands out independent
/// sender and receiver halves.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// The write half of a split [`ServeClient`].
pub struct ClientSender {
    writer: BufWriter<TcpStream>,
}

/// The read half of a split [`ServeClient`].
pub struct ClientReceiver {
    reader: BufReader<TcpStream>,
}

fn write_frame(writer: &mut BufWriter<TcpStream>, req: &WireRequest) -> io::Result<()> {
    let mut line = req.to_line();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn read_frame(reader: &mut BufReader<TcpStream>) -> io::Result<WireResponse> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    WireResponse::parse(line.trim_end()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

impl ServeClient {
    /// Connects to a serve endpoint (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sets a read timeout for [`ServeClient::recv`]; `None` blocks
    /// forever (the default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request frame (flushes immediately).
    pub fn send(&mut self, req: &WireRequest) -> io::Result<()> {
        write_frame(&mut self.writer, req)
    }

    /// Receives one response frame. `UnexpectedEof` means the server
    /// closed the connection; `InvalidData` means the frame was not a
    /// valid response.
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        read_frame(&mut self.reader)
    }

    /// Sends every request, then collects exactly one response per
    /// request, in server order. The batch should stay within the
    /// server's per-connection in-flight cap; beyond it the extra
    /// requests come back as typed `in_flight_limit` rejects (still one
    /// response each, so this never hangs).
    pub fn send_batch(&mut self, reqs: &[WireRequest]) -> io::Result<Vec<WireResponse>> {
        for req in reqs {
            let mut line = req.to_line();
            line.push('\n');
            self.writer.write_all(line.as_bytes())?;
        }
        self.writer.flush()?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            out.push(read_frame(&mut self.reader)?);
        }
        Ok(out)
    }

    /// Splits the connection into independent sender and receiver halves
    /// so one thread can pace requests while another drains responses —
    /// the shape an open-loop load generator needs.
    pub fn split(self) -> (ClientSender, ClientReceiver) {
        (
            ClientSender {
                writer: self.writer,
            },
            ClientReceiver {
                reader: self.reader,
            },
        )
    }
}

impl ClientSender {
    /// Sends one request frame (flushes immediately).
    pub fn send(&mut self, req: &WireRequest) -> io::Result<()> {
        write_frame(&mut self.writer, req)
    }

    /// Shuts down the write direction, signalling end-of-input to the
    /// server while leaving the read half open to drain replies.
    pub fn finish(mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().shutdown(std::net::Shutdown::Write)
    }
}

impl ClientReceiver {
    /// Receives one response frame (see [`ServeClient::recv`]).
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        read_frame(&mut self.reader)
    }

    /// Sets a read timeout for [`ClientReceiver::recv`].
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}
