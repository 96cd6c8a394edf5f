//! The benchmark's open-loop load generator.
//!
//! Requests go out on one connection on a fixed schedule of due times
//! (seeded Poisson arrivals, computed before the phase starts). A sender
//! thread waits for each due time and writes the line whether or not
//! earlier responses have arrived; the calling thread reads the responses,
//! which come back in order on the connection. Each request is timed from
//! its **due** time, not from when it was actually written, so a stall of
//! the daemon or of the sender counts against every request it delays
//! (no coordinated omission); how late the sender ran is reported as lag.
//! Two threads in all.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::stats::mix;

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per request: response time minus due time, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per request: actual send time minus due time, in milliseconds.
    pub lag_ms: Vec<f64>,
    /// The responses, in request order.
    pub responses: Vec<String>,
    /// From the first due time to the last response, in seconds.
    pub elapsed_s: f64,
}

/// `count` seeded Poisson arrival offsets at `rate` requests per second.
pub fn schedule(rate: f64, count: usize, seed: u64) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..count)
        .map(|i| {
            // Uniform in (0, 1]: 53 random bits, shifted off zero.
            let u = ((mix(seed, i as u64) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Sends `lines[i]` at `due[i]` after the phase start over one new
/// connection to `addr` and collects every response.
pub fn run(addr: &str, lines: &[&str], due: &[Duration]) -> io::Result<Phase> {
    assert_eq!(lines.len(), due.len(), "one due time per line");
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Vec<f64>> {
            let mut lag_ms = Vec::with_capacity(lines.len());
            let mut buf = Vec::new();
            for (line, &offset) in lines.iter().zip(due) {
                let at = start + offset;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                buf.clear();
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                let sent = Instant::now();
                writer.write_all(&buf)?;
                lag_ms.push(sent.saturating_duration_since(at).as_secs_f64() * 1e3);
            }
            writer.flush()?;
            Ok(lag_ms)
        });
        let mut phase = Phase::default();
        let mut line = String::new();
        let mut last = start;
        for &offset in due {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            last = Instant::now();
            phase
                .latency_ms
                .push(last.saturating_duration_since(start + offset).as_secs_f64() * 1e3);
            phase
                .responses
                .push(line.trim_end_matches('\n').to_string());
        }
        phase.elapsed_s = last.saturating_duration_since(start).as_secs_f64();
        phase.lag_ms = sender
            .join()
            .map_err(|_| io::Error::other("sender thread panicked"))??;
        Ok(phase)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_hit_their_rate() {
        let a = schedule(200.0, 2000, 7);
        assert_eq!(a, schedule(200.0, 2000, 7));
        assert_ne!(a, schedule(200.0, 2000, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = 2000.0 / a[1999].as_secs_f64();
        assert!((rate - 200.0).abs() < 20.0, "rate {rate}");
    }
}
