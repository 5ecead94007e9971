//! The client side of `raco serve` that `raco fuzz` and `raco loadgen`
//! share: a spawned server child and framed NDJSON connections to it.
//!
//! [`SpawnedServer::spawn`] starts `raco serve` over stdio (the child's
//! pipes are its one connection) or over TCP on an ephemeral port (the
//! bound address is read from the `raco serve: listening on <addr>`
//! line on stderr, which is then drained). A [`Connection`] sends
//! request lines and reads the non-blank reply lines.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// How long a TCP client waits for one reply before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Transport the spawned server listens on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// NDJSON over the child's stdin/stdout.
    Stdio,
    /// NDJSON over TCP connections to an ephemeral port.
    Tcp,
}

/// Where a spawned server takes connections.
enum Endpoint {
    /// The child's pipes, until a caller takes them.
    Stdio(Option<Connection>),
    /// The address the child announced.
    Tcp(String),
}

/// A spawned `raco serve` child. Dropping it kills the child, so an
/// erroring or panicking caller never leaks a server process.
pub struct SpawnedServer {
    child: Child,
    endpoint: Endpoint,
}

impl SpawnedServer {
    /// Spawns `binary serve` over `transport` with extra CLI args
    /// (e.g. `--cache-load <path>`).
    pub fn spawn(binary: &Path, transport: Transport, extra_args: &[String]) -> io::Result<Self> {
        let mut command = Command::new(binary);
        command.arg("serve");
        match transport {
            Transport::Stdio => command
                .arg("--stdio")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null()),
            Transport::Tcp => command
                .args(["--tcp", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped()),
        };
        // Built before the endpoint, so an early return drops (kills)
        // the child.
        let mut server = SpawnedServer {
            child: command.args(extra_args).spawn()?,
            endpoint: Endpoint::Stdio(None),
        };
        let child = &mut server.child;
        server.endpoint = match transport {
            Transport::Stdio => Endpoint::Stdio(Some(Connection {
                writer: Box::new(child.stdin.take().expect("piped stdin")),
                reader: BufReader::new(Box::new(child.stdout.take().expect("piped stdout"))),
            })),
            Transport::Tcp => {
                let stderr = child.stderr.take().expect("piped stderr");
                Endpoint::Tcp(announced_addr(BufReader::new(stderr))?)
            }
        };
        Ok(server)
    }

    /// The TCP address the server listens on (`None` over stdio).
    pub fn addr(&self) -> Option<&str> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => Some(addr),
            Endpoint::Stdio(_) => None,
        }
    }

    /// A connection to the server: a new one per call over TCP; over
    /// stdio the child's pipes, which only the first caller gets.
    pub fn connect(&mut self) -> io::Result<Connection> {
        match &mut self.endpoint {
            Endpoint::Tcp(addr) => Connection::tcp(addr),
            Endpoint::Stdio(pipes) => pipes.take().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::AddrInUse,
                    "the stdio connection is already taken",
                )
            }),
        }
    }

    /// Sends `shutdown` over `connection`, closes it (a stdio server
    /// sees end of input) and waits for the child to exit.
    pub fn shutdown(mut self, mut connection: Connection) -> io::Result<()> {
        let _ = connection.request(r#"{"op":"shutdown"}"#);
        drop(connection);
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for SpawnedServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads stderr up to the `listening on` line and returns the address
/// it names, then keeps draining stderr on a thread so the child never
/// blocks on a full pipe (shutdown snapshots and warnings land there).
fn announced_addr<R: BufRead + Send + 'static>(mut stderr: R) -> io::Result<String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stderr.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server exited before announcing its port",
            ));
        }
        if let Some(addr) = line.trim().strip_prefix("raco serve: listening on ") {
            let addr = addr.to_owned();
            std::thread::spawn(move || {
                while matches!(stderr.read_line(&mut line), Ok(n) if n > 0) {
                    line.clear();
                }
            });
            return Ok(addr);
        }
    }
}

/// One framed NDJSON connection to a server.
pub struct Connection {
    writer: Box<dyn Write + Send>,
    reader: BufReader<Box<dyn Read + Send>>,
}

impl Connection {
    /// Connects to a TCP server at `addr`. Nagle is off: the exchange
    /// is strictly request/response, and Nagle with delayed ACKs would
    /// hold each request behind a ~40 ms timer on loopback.
    pub fn tcp(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Connection {
            writer: Box::new(stream.try_clone()?),
            reader: BufReader::new(Box::new(stream)),
        })
    }

    /// Sends raw bytes (no framing added) and flushes them.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads the next non-blank reply line, trimmed.
    pub fn read_reply(&mut self) -> io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if !line.trim().is_empty() {
                return Ok(line.trim().to_owned());
            }
        }
    }

    /// Sends one request line as one framed write and reads the reply.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send_raw(format!("{line}\n").as_bytes())?;
        self.read_reply()
    }

    /// Sends the request in `chunk`-byte partial writes, each flushed
    /// separately, and reads the reply: the server's partial-frame
    /// handling, exercised the way a congested peer would.
    pub fn request_dribbled(&mut self, line: &str, chunk: usize) -> io::Result<String> {
        for piece in format!("{line}\n").as_bytes().chunks(chunk.max(1)) {
            self.send_raw(piece)?;
        }
        self.read_reply()
    }
}
