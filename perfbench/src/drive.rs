//! Starting the daemon and driving it: one keep-alive connection, one
//! caller that waits for each response before sending the next request
//! (a closed loop with a single client).

use crate::refkernel;
use crate::sys::process_cpu_ns;
use crate::workloads::Request;
use mule_serve::http::write_request;
use mule_serve::{ServerConfig, ServerHandle};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Largest response body the client accepts. `mule_serve::http`'s own
/// client half stops at 1 MiB, below the 1.8 MB plan documents of
/// 2000-target requests, so the benchmark reads responses itself.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// A response as the client received it.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    /// Header names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one `Content-Length`-framed HTTP/1.1 response.
fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut response = Response {
        status,
        headers,
        body: Vec::new(),
    };
    let len: usize = response
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("no content-length"))?;
    if len > MAX_RESPONSE_BYTES {
        return Err(bad("response body too large"));
    }
    response.body = vec![0; len];
    reader.read_exact(&mut response.body)?;
    Ok(response)
}

/// A keep-alive HTTP/1.1 connection to the daemon.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    /// Sends one request and reads the whole response. After a transport
    /// error the connection is dropped and the next call reconnects.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some((stream.try_clone()?, BufReader::new(stream)));
        }
        let (writer, reader) = self.conn.as_mut().expect("connected above");
        let result = write_request(writer, method, path, body).and_then(|()| read_response(reader));
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

/// The daemon configuration the benchmark runs: `patrolctl serve`
/// defaults on an ephemeral loopback port.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

/// Starts the daemon and waits for its first `/healthz` 200. Returns the
/// handle and the time from the `start` call to that answer, in ms.
pub fn boot() -> io::Result<(ServerHandle, f64)> {
    let t = Instant::now();
    let server = mule_serve::start(server_config())?;
    let mut client = Client::new(server.addr());
    for _ in 0..1000 {
        if matches!(client.send("GET", "/healthz", b""), Ok(r) if r.status == 200) {
            return Ok((server, t.elapsed().as_secs_f64() * 1e3));
        }
        std::thread::yield_now();
    }
    Err(io::Error::other("the daemon never answered /healthz"))
}

/// What one request cost and returned.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Send of the first byte to receipt of the last, ns.
    pub latency_ns: u64,
    /// Process CPU time (client plus daemon threads) over that window, ns.
    pub cpu_ns: u64,
    /// Reference-kernel time taken just before the request, ms.
    pub ref_ms: f64,
    /// `None` on a transport error.
    pub response: Option<Response>,
}

/// Sends `requests` in order over one connection, timing the reference
/// kernel before each. `inspect` sees each sample with its body; the
/// body is then dropped, so multi-megabyte plans do not pile up.
pub fn closed_loop(
    client: &mut Client,
    requests: &[Request],
    mut inspect: impl FnMut(&Sample),
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(requests.len());
    for request in requests {
        let ref_ms = refkernel::time_once();
        let cpu0 = process_cpu_ns();
        let t = Instant::now();
        let response = client.send("POST", request.endpoint.path(), &request.body);
        let latency_ns = t.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns().saturating_sub(cpu0);
        let mut sample = Sample {
            latency_ns,
            cpu_ns,
            ref_ms,
            response: response.ok(),
        };
        inspect(&sample);
        if let Some(r) = sample.response.as_mut() {
            r.body = Vec::new();
        }
        samples.push(sample);
    }
    samples
}
