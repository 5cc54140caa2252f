//! `served-warm`: a `bbs serve --jobs 1` daemon whose memo is warmed during
//! set-up, driven by two closed-loop client connections. Every request
//! submits one built-in suite and waits for its report; all solves are
//! memo hits, so the time goes to protocol framing, admission, queue wait
//! (two clients share one serial dispatcher), validation replay on memo
//! hits, and report streaming. Cold solves stay out on purpose.

use crate::harness::{self, Args, RunOutcome, Tally};
use crate::trace::Trace;
use bbs_engine::serve::protocol::{read_frame, send_request, write_frame, StatsSnapshot};
use bbs_engine::suites::builtin_suite;
use bbs_engine::{Engine, Reply, Request, RunSettings, SuiteReport};
use std::collections::BTreeMap;
use std::fs;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Requests per pass, by built-in suite.
const MIX: [(&str, usize); 3] = [("smoke", 30), ("gen-smoke", 30), ("paper", 30)];

/// Closed-loop client connections: one per core of the reference machine.
const CLIENTS: usize = 2;

/// Daemon set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// A running `bbs serve` child, killed and reaped if dropped while alive.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(bbs: &Path, log: &Path) -> Result<Self, String> {
        let stdout =
            fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut command = Command::new(bbs);
        command
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(stdout);
        // The daemon must run memory-only and fault-free whatever the
        // caller's environment says.
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("BBS_") {
                command.env_remove(name);
            }
        }
        let child = command
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bbs.display()))?;
        let mut daemon = Self {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|line| line.strip_prefix("bbs serve: listening on "))
            {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("bbs serve exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("bbs serve did not start listening within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connecting {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        Ok(stream)
    }

    fn peak_rss_kb(&self) -> Result<u64, String> {
        harness::peak_rss_kb(&self.child.id().to_string())
    }

    /// Asks the daemon to drain and exit, and reaps it.
    fn shutdown(mut self, stream: &mut TcpStream) -> Result<(), String> {
        send_request(stream, &Request::shutdown()).map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("bbs serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("bbs serve did not exit within 20 s".to_string()),
                Err(e) => return Err(format!("waiting for bbs serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one served request returned.
struct Served {
    report: String,
    points: u64,
    frames: u64,
    bytes_in: u64,
    bytes_out: u64,
    depth: u64,
}

/// Submits one run request and reads its replies up to the report. With a
/// trace, the request is split into admission (write to `accepted`), queue
/// wait (`accepted` to the first `point`) and streaming (first `point` to
/// `report`), with every reply decode as a nested span.
fn submit(
    stream: &mut TcpStream,
    payload: &[u8],
    mut trace: Option<&mut Trace>,
) -> Result<Served, String> {
    if let Some(trace) = trace.as_deref_mut() {
        trace.begin("serve.admit");
    }
    let result = submit_inner(stream, payload, trace.as_deref_mut());
    if let Some(trace) = trace {
        trace.end_all();
    }
    result
}

fn submit_inner(
    stream: &mut TcpStream,
    payload: &[u8],
    mut trace: Option<&mut Trace>,
) -> Result<Served, String> {
    write_frame(stream, payload).map_err(|e| format!("sending run: {e}"))?;
    let mut served = Served {
        report: String::new(),
        points: 0,
        frames: 1,
        bytes_in: 4 + payload.len() as u64,
        bytes_out: 0,
        depth: 0,
    };
    let mut streaming = false;
    loop {
        let frame = read_frame(stream)
            .map_err(|e| format!("reading reply: {e}"))?
            .ok_or("daemon closed the connection")?;
        served.frames += 1;
        served.bytes_out += 4 + frame.len() as u64;
        let decode = || serde_json::from_slice::<Reply>(&frame);
        let reply = match trace.as_deref_mut() {
            Some(trace) => trace.span("protocol.decode", decode),
            None => decode(),
        }
        .map_err(|e| format!("decoding reply: {e}"))?;
        match reply.kind.as_str() {
            "accepted" => {
                served.depth = reply.queue_depth.unwrap_or(0);
                if let Some(trace) = trace.as_deref_mut() {
                    trace.end();
                    trace.begin("serve.queue_wait");
                }
            }
            "point" => {
                served.points += 1;
                if !streaming {
                    streaming = true;
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.end();
                        trace.begin("serve.stream");
                    }
                }
            }
            "report" => {
                served.report = reply.report.ok_or("report frame without a report")?;
                return Ok(served);
            }
            other => {
                return Err(format!(
                    "`{other}` reply: {}",
                    reply.message.unwrap_or_default()
                ))
            }
        }
    }
}

fn stats(stream: &mut TcpStream) -> Result<StatsSnapshot, String> {
    send_request(stream, &Request::stats()).map_err(|e| format!("sending stats: {e}"))?;
    let frame = read_frame(stream)
        .map_err(|e| format!("reading stats: {e}"))?
        .ok_or("daemon closed the connection")?;
    let reply: Reply = serde_json::from_slice(&frame).map_err(|e| format!("stats reply: {e}"))?;
    reply
        .stats
        .ok_or_else(|| "stats reply without stats".to_string())
}

fn cache_counters(stream: &mut TcpStream) -> Result<(u64, u64), String> {
    let cache = stats(stream)?.cache.ok_or("stats without cache counters")?;
    Ok((cache.hits, cache.misses))
}

/// The daemon plus the two client connections, memo warmed.
struct Service {
    daemon: Daemon,
    clients: Vec<TcpStream>,
}

/// Starts a daemon, connects the clients and warms the memo with one run
/// of every suite of the mix; each warm-up report must equal the local one.
fn set_up(
    bbs: &Path,
    log: &Path,
    payloads: &BTreeMap<&str, Vec<u8>>,
    references: &BTreeMap<&str, String>,
) -> Result<Service, String> {
    let daemon = Daemon::start(bbs, log)?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    for (name, payload) in payloads {
        let served = submit(&mut clients[0], payload, None)?;
        if served.report != references[name] {
            return Err(format!(
                "warm-up {name}: served report differs from the local one"
            ));
        }
    }
    Ok(Service { daemon, clients })
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let bbs = args
        .bbs
        .clone()
        .ok_or("served-warm needs --bbs <path to the bbs binary>")?;
    let root = args.work_dir.join("served-warm");
    fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
    let result = measure(args, &bbs, &root);
    let _ = fs::remove_dir_all(&root);
    result
}

fn measure(args: &Args, bbs: &Path, root: &Path) -> Result<RunOutcome, String> {
    let engine = Engine::new(1);
    let mut payloads = BTreeMap::new();
    let mut references = BTreeMap::new();
    for (name, _) in MIX {
        let suite = builtin_suite(name).ok_or_else(|| format!("no built-in suite `{name}`"))?;
        let outcome = engine
            .run_suite(&suite, &RunSettings::with_jobs(1))
            .map_err(|e| e.to_string())?;
        references.insert(name, SuiteReport::from_outcome(&outcome).to_json());
        let payload = serde_json::to_vec(&Request::run_builtin(name, 1))
            .map_err(|e| format!("encoding run request: {e}"))?;
        payloads.insert(name, payload);
    }
    drop(engine);
    let mut list: Vec<&str> = MIX
        .iter()
        .flat_map(|&(name, count)| std::iter::repeat_n(name, count))
        .collect();
    harness::shuffle(&mut list, args.seed);

    let mut setup_s = Vec::new();
    let mut service = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some(Service {
            daemon,
            mut clients,
        }) = service.take()
        {
            daemon.shutdown(&mut clients[0])?;
        }
        let start = Instant::now();
        let up = set_up(
            bbs,
            &root.join(format!("serve-{repeat}.log")),
            &payloads,
            &references,
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        service = Some(up);
    }
    let Service {
        daemon,
        mut clients,
    } = service.expect("at least one set-up");
    let (_, warm_misses) = cache_counters(&mut clients[0])?;

    let mut tally = Tally::default();
    let mut trace = Trace::default();
    let passes = harness::whole_passes(args.seconds, |pass| {
        let begin = Instant::now();
        let (untraced, untraced_trace) =
            run_pass(&mut clients, &list, &payloads, &references, false);
        tally.merge(untraced);
        tally.close_pass(begin.elapsed());
        trace.merge(untraced_trace);
        if args.trace {
            let before = cache_counters(&mut clients[0])?;
            let (traced, pass_trace) = run_pass(&mut clients, &list, &payloads, &references, true);
            let after = cache_counters(&mut clients[0])?;
            trace.merge(pass_trace);
            if pass == 0 {
                trace.count("cache.hits", after.0 - before.0);
                trace.count("cache.misses", after.1 - before.1);
            }
            trace.end_pass();
            tally.merge(traced);
        }
        Ok(())
    })?;
    let (_, misses) = cache_counters(&mut clients[0])?;
    if misses != warm_misses {
        tally.fail(format!(
            "memo misses grew after set-up: {warm_misses} -> {misses}"
        ));
    }
    let peak_rss_kb = daemon.peak_rss_kb()?;
    daemon.shutdown(&mut clients[0])?;
    Ok(RunOutcome {
        setup_s,
        tally,
        passes,
        peak_rss_kb,
        layers: if args.trace {
            trace.per_layer(&Trace::default())
        } else {
            Vec::new()
        },
    })
}

/// One pass: the clients pull requests off a shared cursor until the list
/// is exhausted, each waiting for its report before sending the next.
fn run_pass(
    clients: &mut [TcpStream],
    list: &[&str],
    payloads: &BTreeMap<&str, Vec<u8>>,
    references: &BTreeMap<&str, String>,
    traced: bool,
) -> (Tally, Trace) {
    let cursor = AtomicUsize::new(0);
    let results: Vec<(Tally, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|stream| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut trace = Trace::default();
                    while let Some(&name) = list.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let begin = Instant::now();
                        let result = submit(stream, &payloads[name], traced.then_some(&mut trace));
                        let latency = begin.elapsed();
                        let served = match result {
                            Ok(served) => served,
                            Err(e) => {
                                tally.fail(format!("{name}: {e}"));
                                continue;
                            }
                        };
                        let check = if served.report == references[name] {
                            Ok(())
                        } else {
                            Err(format!("{name}: served report differs from the local one"))
                        };
                        if traced {
                            trace.finish_request(latency);
                            trace.count("protocol.frames", served.frames);
                            trace.count("protocol.bytes_in", served.bytes_in);
                            trace.count("protocol.bytes_out", served.bytes_out);
                            trace.count("queue.depth_at_accept", served.depth);
                            tally.record_check(check);
                        } else {
                            trace.add_untraced(latency);
                            tally.record(latency, served.points, check);
                        }
                    }
                    (tally, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut trace = Trace::default();
    for (client_tally, client_trace) in results {
        tally.merge(client_tally);
        trace.merge(client_trace);
    }
    (tally, trace)
}
