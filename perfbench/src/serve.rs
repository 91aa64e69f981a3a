//! `serve_mixed` and `serve_flood`: an in-process `bncg_serve::Server`
//! driven over TCP by one load-generating thread on two connections.
//!
//! Sending, receiving (one `poll(2)` over both sockets), timing and
//! checking all happen on the generator thread. The daemon runs one
//! worker, so only the generator, the daemon's reactor and its worker
//! compete for the host's two cores.

use crate::inst::{self, core_concept, Inst, Rng};
use crate::json::Json;
use crate::layers::scheduler_config;
use crate::oracle::{Concept, Price};
use crate::req::{answer_of_line, verify, Answer, Checked, Op, Req};
use crate::trace::{self, Tracer};
use crate::{metric, run_rounds, setup_median, Cfg, Report};
use bncg_atlas::{Atlas, BuildSpec, DiskBacking, DynAtlas, MemoryBacking};
use bncg_core::{ExecPolicy, Solver, StabilityQuery};
use bncg_serve::{AtlasService, Server, ServerConfig};
use std::collections::VecDeque;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running daemon; dropping it stops the daemon and deletes its
/// atlas directory.
struct Daemon {
    server: Server,
    dir: Option<PathBuf>,
}

impl Daemon {
    fn start(atlas_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut service = AtlasService::empty();
        if let Some(dir) = atlas_dir {
            let _ = std::fs::remove_dir_all(dir);
            let mut atlas = open_atlas(dir)?;
            bncg_atlas::build(&mut atlas, &BuildSpec::standard(6), u64::MAX, None)
                .map_err(|e| e.to_string())?;
            atlas.flush().map_err(|e| e.to_string())?;
            service = AtlasService::with_atlas(atlas);
        }
        let server = Server::start(ServerConfig {
            scheduler: scheduler_config(),
            atlas: Arc::new(service),
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Daemon {
            server,
            dir: atlas_dir.map(Path::to_path_buf),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server.stop();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn open_atlas(dir: &Path) -> Result<DynAtlas, String> {
    let backing = DiskBacking::open(dir).map_err(|e| e.to_string())?;
    Atlas::open(Box::new(backing) as Box<dyn MemoryBacking + Send + Sync>)
        .map_err(|e| e.to_string())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

const POLLIN: i16 = 1;

/// Two connections, written and read by the one generator thread: a
/// `poll(2)` over both sockets timestamps each response line as it
/// arrives, with no reader threads competing for the two cores.
struct Client {
    streams: Vec<TcpStream>,
    partial: Vec<Vec<u8>>,
    ready: VecDeque<(usize, Instant, String)>,
}

impl Client {
    fn connect(addr: SocketAddr, conns: usize) -> Result<Client, String> {
        let mut streams = Vec::new();
        for _ in 0..conns {
            let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            streams.push(s);
        }
        Ok(Client {
            partial: vec![Vec::new(); conns],
            streams,
            ready: VecDeque::new(),
        })
    }

    fn send(&mut self, conn: usize, line: &str) -> Result<Instant, String> {
        let w = &mut self.streams[conn];
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        Ok(Instant::now())
    }

    /// The next response line, waiting at most `timeout`; `Ok(None)` on
    /// timeout.
    fn recv_within(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Instant, String)>, String> {
        if let Some(line) = self.ready.pop_front() {
            return Ok(Some(line));
        }
        let mut fds: Vec<PollFd> = self
            .streams
            .iter()
            .map(|s| PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let ms = i32::try_from(timeout.as_millis().max(1)).unwrap_or(i32::MAX);
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `#[repr(C)]` pollfd records whose descriptors stay
        // open for the call (owned by `self.streams`).
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            return if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(None)
            } else {
                Err(e.to_string())
            };
        }
        let at = Instant::now();
        let mut buf = [0u8; 1 << 16];
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            // Readable: one read returns what has arrived without blocking.
            let got = self.streams[c].read(&mut buf).map_err(|e| e.to_string())?;
            if got == 0 {
                return Err("daemon closed the connection".into());
            }
            let pending = &mut self.partial[c];
            pending.extend_from_slice(&buf[..got]);
            while let Some(end) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=end).collect();
                let line = String::from_utf8(line).map_err(|e| e.to_string())?;
                self.ready.push_back((c, at, line));
            }
        }
        Ok(self.ready.pop_front())
    }

    fn recv(&mut self) -> Result<(usize, Instant, String), String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("no response from the daemon within 120 s".into());
            }
            if let Some(line) = self.recv_within(left)? {
                return Ok(line);
            }
        }
    }

    /// One closed-loop request on `conn` (nothing else may be in flight).
    fn call(&mut self, conn: usize, line: &str) -> Result<(f64, String), String> {
        let sent = self.send(conn, line)?;
        let (_, at, resp) = self.recv()?;
        Ok((at.duration_since(sent).as_secs_f64(), resp))
    }
}

/// A final response: its slot, arrival, line and parsed body.
struct Final {
    slot: usize,
    latency_s: f64,
    key: String,
    json: Json,
}

/// Drops the leading `"id"` field so the same answer in two rounds has
/// the same key.
fn key_of(line: &str) -> String {
    line.trim_end()
        .split_once(',')
        .map_or(line, |(_, rest)| rest)
        .to_string()
}

/// Per-tenant `used` from a stats response.
fn used_by_tenant(j: &Json) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    if let Some(Json::Arr(rows)) = j.get("tenants") {
        for r in rows {
            if let (Some(name), Some(used)) = (r.str("tenant"), r.u64("used")) {
                out.insert(name.to_string(), used);
            }
        }
    }
    out
}

/// Shared checking and accounting across rounds of a serve workload.
struct Ledger {
    checked: Checked,
    used: HashMap<String, u64>,
    latencies: trace::Samples,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            checked: Checked::default(),
            used: HashMap::new(),
            latencies: trace::Samples::new(),
        }
    }

    /// Checks one round's final responses. Streamed trajectories must
    /// equal their twin (`twins[slot]`) byte for byte, and a first-seen
    /// atlas hit must agree with a live in-process check.
    fn check_round(
        &mut self,
        reqs: &[Req],
        finals: &[Final],
        twins: &HashMap<usize, usize>,
        rep: &mut Report,
    ) {
        let by_slot: HashMap<usize, &Final> = finals.iter().map(|f| (f.slot, f)).collect();
        for f in finals {
            let req = &reqs[f.slot];
            let ans = match answer_of_line(req, &f.json) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{}: {e}", req.class);
                    rep.failed(req.class);
                    continue;
                }
            };
            let mut verdict = Ok(());
            if let Some(twin) = twins.get(&f.slot) {
                if by_slot.get(twin).map(|t| &t.key) != Some(&f.key) {
                    verdict =
                        Err("streamed final line differs from its non-streamed twin".to_string());
                }
            }
            if verdict.is_ok() {
                verdict = self.checked.check(f.slot, &f.key, || {
                    verify(req, &ans)?;
                    atlas_agrees_with_live(req, &f.json, &ans)
                });
            }
            rep.checked(req.class, verdict);
        }
    }

    /// Reconciles each tenant's charged evals (`stats.used`) against
    /// the evals its responses reported this round: one `accounting`
    /// operation per tenant.
    fn reconcile(
        &mut self,
        stats: &Json,
        reported: &BTreeMap<&'static str, u64>,
        rep: &mut Report,
    ) {
        let now = used_by_tenant(stats);
        for (&tenant, &evals) in reported {
            let used = now.get(tenant).copied().unwrap_or(0);
            let charged = used.saturating_sub(self.used.get(tenant).copied().unwrap_or(0));
            self.used.insert(tenant.to_string(), used);
            if charged == evals {
                rep.checked("accounting", Ok(()));
            } else {
                if rep.classes.get("accounting").map_or(0, |c| c.1) < 2 {
                    eprintln!("accounting: tenant {tenant} charged {charged} evals, responses reported {evals}");
                }
                rep.failed("accounting");
            }
        }
    }
}

/// An atlas hit must agree with a live in-process check of the same
/// instance (verdict; both witnesses are checked by the oracle).
fn atlas_agrees_with_live(req: &Req, j: &Json, ans: &Answer) -> Result<(), String> {
    let (Op::Lookup(c), Some("atlas"), Some(inst)) = (req.op, j.str("source"), &req.inst) else {
        return Ok(());
    };
    let q = StabilityQuery::new(core_concept(c), &inst.graph, inst.alpha);
    let live = Solver::new(ExecPolicy::default())
        .check(&q)
        .map_err(|e| e.to_string())?;
    match (ans, live.is_stable()) {
        (Answer::Verdict { stable, .. }, Some(s)) if *stable == s => Ok(()),
        _ => Err("atlas hit disagrees with a live check".into()),
    }
}

/// Sends `reqs[slot]` lines and collects finals until every slot in
/// `order[c]` has answered, closed loop per connection.
fn closed_loop(
    client: &mut Client,
    reqs: &[Req],
    order: &[Vec<usize>],
    next_id: &mut u64,
    tracer: &mut Tracer,
    lag: &mut Lag,
) -> Result<Vec<Final>, String> {
    let mut cursor = vec![0usize; order.len()];
    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut finals = Vec::new();
    let mut issue = |client: &mut Client,
                     c: usize,
                     ready: Instant,
                     cursor: &mut Vec<usize>,
                     inflight: &mut HashMap<u64, (usize, Instant)>|
     -> Result<(), String> {
        if let Some(&slot) = order[c].get(cursor[c]) {
            cursor[c] += 1;
            *next_id += 1;
            let line = reqs[slot].line(*next_id);
            let sent = client.send(c, &line)?;
            lag.push(sent.duration_since(ready).as_secs_f64());
            inflight.insert(*next_id, (slot, sent));
        }
        Ok(())
    };
    let now = Instant::now();
    for c in 0..order.len() {
        issue(client, c, now, &mut cursor, &mut inflight)?;
    }
    while !inflight.is_empty() {
        let (c, at, line) = client.recv()?;
        let json = Json::parse(line.trim_end())?;
        if json.u64("progress") == Some(1) {
            continue;
        }
        let id = json.u64("id").ok_or("response without id")?;
        let (slot, sent) = inflight.remove(&id).ok_or("response for an unknown id")?;
        tracer.record("wire.request", sent, at, None, id, 1);
        finals.push(Final {
            slot,
            latency_s: at.duration_since(sent).as_secs_f64(),
            key: key_of(&line),
            json,
        });
        issue(client, c, at, &mut cursor, &mut inflight)?;
    }
    Ok(finals)
}

fn reported_evals(reqs: &[Req], finals: &[Final]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for f in finals {
        let req = &reqs[f.slot];
        if req.inst.is_some() {
            *out.entry(req.tenant).or_insert(0) += f.json.u64("evals").unwrap_or(0);
        }
    }
    out
}

fn random_price(rng: &mut Rng, n: usize) -> Price {
    match rng.below(4) {
        0 => Price { num: 1, den: 2 },
        1 => Price::int(1),
        2 => Price::int(2),
        _ => Price::int(n as u64),
    }
}

/// A concept the oracle can settle for an arbitrary small graph at
/// this price: polynomial concepts and BNE by brute force at any price;
/// k-BSE and BSE only at α = 1/2 (Prop. 3.16: only the clique is
/// stable, any non-edge is a joint improving add) and α = 1 (diameter
/// <= 2 is stable, a pair at distance >= 3 is a joint improving add).
fn settleable(rng: &mut Rng, price: Price) -> Concept {
    if price.num <= price.den {
        rng.pick(&Concept::ALL)
    } else {
        rng.pick(&Concept::ALL[..6])
    }
}

const MIX_TENANTS: [&str; 2] = ["mix-a", "mix-b"];

/// One round of `serve_mixed` for each tenant: mostly atlas hits on
/// relabelled n <= 6 graphs, plus misses at n = 7..10, cheap live
/// checks and best responses, short trajectories (half streamed, each
/// with a non-streamed twin) and periodic stats.
fn mixed_inputs(rng: &mut Rng) -> (Vec<Req>, Vec<Vec<usize>>, HashMap<usize, usize>) {
    let mut reqs = Vec::new();
    let mut order = vec![Vec::new(); 2];
    let mut twins = HashMap::new();
    for (c, &tenant) in MIX_TENANTS.iter().enumerate() {
        let mut mine = Vec::new();
        let push = |reqs: &mut Vec<Req>, r: Req| {
            reqs.push(r);
            reqs.len() - 1
        };
        for i in 0..80 {
            let n = 3 + i % 4;
            let drawn = inst::random_connected(rng, n, 0.4);
            let e = inst::relabel(rng, n, &drawn);
            let price = random_price(rng, n);
            let concept = settleable(rng, price);
            mine.push(push(
                &mut reqs,
                Req::new(
                    Op::Lookup(concept),
                    Inst::new("hit", n, &e, price),
                    tenant,
                    "lookup.hit",
                ),
            ));
        }
        for i in 0..6 {
            let n = 7 + i % 4;
            let e = inst::random_connected(rng, n, 0.3);
            let price = rng.pick(&[Price::int(1), Price { num: 3, den: 2 }, Price::int(3)]);
            // BSE misses are left out: a stable n >= 7 scan takes seconds.
            let concept = match settleable(rng, price) {
                Concept::Bse => Concept::KBse(3),
                c => c,
            };
            mine.push(push(
                &mut reqs,
                Req::new(
                    Op::Lookup(concept),
                    Inst::new("miss", n, &e, price),
                    tenant,
                    "lookup.miss",
                ),
            ));
        }
        for i in 0..6 {
            let n = 6 + i;
            let e = inst::random_connected(rng, n, 0.25);
            let price = rng.pick(&[Price::int(1), Price::int(2), Price { num: 5, den: 2 }]);
            let concept = rng.pick(&Concept::ALL[..6]);
            mine.push(push(
                &mut reqs,
                Req::new(
                    Op::Check(concept),
                    Inst::new("check", n, &e, price),
                    tenant,
                    "check",
                ),
            ));
        }
        for i in 0..5 {
            let n = 6 + i;
            let e = inst::random_connected(rng, n, 0.2);
            let price = rng.pick(&[Price::int(1), Price::int(2), Price::int(3)]);
            let agent = rng.below(n) as u32;
            mine.push(push(
                &mut reqs,
                Req::new(
                    Op::BestResponse(agent),
                    Inst::new("best", n, &e, price),
                    tenant,
                    "best_response",
                ),
            ));
        }
        // Trajectories start from fixed paths: their cost sets p99, and
        // a fixed start keeps it from varying with the seed.
        for (i, n) in [10, 11, 12, 10, 11, 12].into_iter().enumerate() {
            let price = if i < 3 {
                Price::int(2)
            } else {
                Price { num: 3, den: 2 }
            };
            let inst = Inst::new("traj", n, &inst::path(n), price);
            let plain = push(
                &mut reqs,
                Req::new(
                    Op::Trajectory {
                        rounds: 30,
                        stream: false,
                    },
                    inst.clone(),
                    tenant,
                    "trajectory",
                ),
            );
            mine.push(plain);
            if i % 3 == 0 {
                let streamed = push(
                    &mut reqs,
                    Req::new(
                        Op::Trajectory {
                            rounds: 30,
                            stream: true,
                        },
                        inst,
                        tenant,
                        "trajectory",
                    ),
                );
                twins.insert(streamed, plain);
                mine.push(streamed);
            }
        }
        for _ in 0..2 {
            mine.push(push(&mut reqs, Req::stats()));
        }
        rng.shuffle(&mut mine);
        order[c] = mine;
    }
    (reqs, order, twins)
}

pub fn run_mixed(cfg: &Cfg) -> Result<Report, String> {
    let mut rep = Report::default();
    let dir = cfg.out.join(format!("atlas-{}", std::process::id()));
    let (setup_s, built) = setup_median(3, || -> Result<_, String> {
        let inputs = mixed_inputs(&mut Rng::new(cfg.seed));
        Ok((Daemon::start(Some(&dir))?, inputs))
    });
    let (daemon, (reqs, mut order, twins)) = built?;
    // Each round sends the same requests in a fresh seeded order.
    let mut shuffle = Rng::new(cfg.seed ^ 0x5EED);
    let mut client = Client::connect(daemon.server.addr(), 2)?;
    let mut tracer = Tracer::new(false);
    let mut ledger = Ledger::new();
    let mut next_id = 0u64;
    let mut lag = Lag::default();
    let mut failure = None;
    // The pre-run stats sets each tenant's `used` baseline.
    let (_, line) = client.call(0, "{\"id\":0,\"op\":\"stats\"}")?;
    ledger.used = used_by_tenant(&Json::parse(line.trim_end())?)
        .into_iter()
        .collect();
    let (plain, traced) = run_rounds(cfg, 3, &mut tracer, |tracer, timed| {
        for o in &mut order {
            shuffle.shuffle(o);
        }
        let t0 = Instant::now();
        let finals = match closed_loop(&mut client, &reqs, &order, &mut next_id, tracer, &mut lag) {
            Ok(f) => f,
            Err(e) => {
                failure.get_or_insert(e);
                return t0.elapsed().as_secs_f64();
            }
        };
        let dt = t0.elapsed().as_secs_f64();
        if timed {
            for f in &finals {
                ledger.latencies.push(reqs[f.slot].class, f.latency_s);
            }
        }
        ledger.check_round(&reqs, &finals, &twins, &mut rep);
        next_id += 1;
        match client.call(0, &format!("{{\"id\":{next_id},\"op\":\"stats\"}}")) {
            Ok((_, line)) => match Json::parse(line.trim_end()) {
                Ok(j) => ledger.reconcile(&j, &reported_evals(&reqs, &finals), &mut rep),
                Err(e) => drop(failure.get_or_insert(e)),
            },
            Err(e) => drop(failure.get_or_insert(e)),
        }
        dt
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let per_round: usize = order.iter().map(Vec::len).sum();
    if cfg.trace {
        let atlas = open_atlas(&dir)?;
        let mut layers =
            crate::layers::replay(&reqs, Some(&atlas), Some(daemon.server.addr()), &mut tracer)?;
        set_lag(&mut layers, &lag);
        layers.extend(crate::overhead_metrics(&plain, &traced));
        drop(client);
        drop(daemon);
        tracer
            .write(
                &cfg.out
                    .join(format!("spans-serve_mixed-{}.jsonl", cfg.seed)),
            )
            .map_err(|e| e.to_string())?;
        rep.metrics = layers;
    } else {
        drop(client);
        drop(daemon);
        rep.push(metric("setup_s", setup_s, "s"));
        rep.push(metric("sweep_s", trace::median(&plain), "s"));
        rep.push(crate::round_rate(per_round, &plain));
        crate::latency_metrics(&mut rep, &mut ledger.latencies);
        rep.push(metric("peak_rss_mb", crate::peak_rss_mb(), "MB"));
    }
    Ok(rep)
}

/// How late the load generator sent (closed loop: from the previous
/// answer; open loop: from the due time), kept as a running mean and
/// maximum so that the benchmark's own memory does not grow with the
/// number of requests a run sends, which `peak_rss_mb` would show.
#[derive(Default)]
struct Lag {
    sum_s: f64,
    n: u64,
    max_s: f64,
}

impl Lag {
    fn push(&mut self, s: f64) {
        self.sum_s += s;
        self.n += 1;
        self.max_s = self.max_s.max(s);
    }

    fn mean_s(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_s / self.n as f64
        }
    }
}

/// The load generator's lag replaces the replay client's.
fn set_lag(layers: &mut [crate::Metric], lag: &Lag) {
    if let Some(m) = layers.iter_mut().find(|m| m.name == "load.lag_ms") {
        m.value = lag.mean_s() * 1e3;
    }
}

/// One round of `serve_flood`: the heavy tenant's fixed backlog and the
/// light tenant's fixed number of cheap checks.
struct Flood {
    reqs: Vec<Req>,
    heavy: Vec<usize>,
    light: Vec<usize>,
    twins: HashMap<usize, usize>,
}

const LIGHT_COUNT: usize = 300;
const LIGHT_RATE: f64 = 300.0;

fn flood_inputs(seed: u64) -> Flood {
    let rng = &mut Rng::new(seed);
    let mut reqs = Vec::new();
    let mut twins = HashMap::new();
    let mut heavy = Vec::new();
    let one = Price::int(1);
    // n = 1024 polynomial checks first: they run unsliced today.
    let s1024 = inst::sparse(rng, 1024, 4 * 1024);
    let big = Inst::new("sparse1024", 1024, &s1024, one);
    for c in [Concept::Re, Concept::Ps, Concept::Bge] {
        reqs.push(Req::new(
            Op::Check(c),
            big.clone(),
            "heavy",
            "heavy.poly1024",
        ));
        heavy.push(reqs.len() - 1);
    }
    // Multi-slice exponential checks on stable cycles (Lemma 2.4).
    for (n, c) in [
        (16, Concept::KBse(3)),
        (32, Concept::KBse(2)),
        (16, Concept::KBse(3)),
        (32, Concept::KBse(2)),
    ] {
        let e = inst::relabel(rng, n, &inst::cycle(n));
        let i = Inst::new(
            format!("cycle{n}"),
            n,
            &e,
            inst::cycle_window_price(n as u64),
        );
        reqs.push(Req::new(Op::Check(c), i, "heavy", "heavy.exact"));
        heavy.push(reqs.len() - 1);
    }
    // Streamed trajectories, each with its non-streamed twin.
    for n in [11, 12] {
        let e = inst::random_tree(rng, n);
        let i = Inst::new("traj", n, &e, Price::int(2));
        reqs.push(Req::new(
            Op::Trajectory {
                rounds: 30,
                stream: true,
            },
            i.clone(),
            "heavy",
            "heavy.trajectory",
        ));
        reqs.push(Req::new(
            Op::Trajectory {
                rounds: 30,
                stream: false,
            },
            i,
            "heavy",
            "heavy.trajectory",
        ));
        twins.insert(reqs.len() - 2, reqs.len() - 1);
        heavy.extend([reqs.len() - 2, reqs.len() - 1]);
    }
    let mut light = Vec::new();
    for i in 0..LIGHT_COUNT {
        let n = 5 + i % 4;
        let e = inst::random_connected(rng, n, 0.3);
        let price = rng.pick(&[one, Price::int(2)]);
        let c = rng.pick(&Concept::ALL[..6]);
        reqs.push(Req::new(
            Op::Check(c),
            Inst::new("light", n, &e, price),
            "light",
            "light.check",
        ));
        light.push(reqs.len() - 1);
    }
    Flood {
        reqs,
        heavy,
        light,
        twins,
    }
}

/// Latency samples and timing of one flood round.
struct FloodRound {
    finals: Vec<Final>,
    drain_s: f64,
}

/// One round: the heavy backlog at once, then the light stream with
/// fresh seeded Poisson gaps drawn from `arrivals`.
fn flood_round(
    client: &mut Client,
    f: &Flood,
    arrivals: &mut Rng,
    next_id: &mut u64,
    tracer: &mut Tracer,
    lag: &mut Lag,
) -> Result<FloodRound, String> {
    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut finals = Vec::new();
    let t0 = Instant::now();
    let mut heavy_left = f.heavy.len();
    let mut drain_s = 0.0;
    for &slot in &f.heavy {
        *next_id += 1;
        let sent = client.send(0, &f.reqs[slot].line(*next_id))?;
        inflight.insert(*next_id, (slot, sent));
    }
    let mut due = t0;
    let mut next_light = 0;
    let next_gap = |rng: &mut Rng| -(1.0 - rng.unit()).ln() / LIGHT_RATE;
    let mut gap = next_gap(arrivals);
    let mut on_line = |at: Instant,
                       line: String,
                       inflight: &mut HashMap<u64, (usize, Instant)>,
                       finals: &mut Vec<Final>|
     -> Result<(), String> {
        let json = Json::parse(line.trim_end())?;
        if json.u64("progress") == Some(1) {
            return Ok(());
        }
        let id = json.u64("id").ok_or("response without id")?;
        let (slot, from) = inflight.remove(&id).ok_or("response for an unknown id")?;
        tracer.record("wire.request", from, at, None, id, 1);
        if f.reqs[slot].tenant == "heavy" {
            heavy_left -= 1;
            if heavy_left == 0 {
                drain_s = at.duration_since(t0).as_secs_f64();
            }
        }
        finals.push(Final {
            slot,
            latency_s: at.duration_since(from).as_secs_f64(),
            key: key_of(&line),
            json,
        });
        Ok(())
    };
    while next_light < f.light.len() || !inflight.is_empty() {
        if next_light < f.light.len() {
            let target = due + Duration::from_secs_f64(gap);
            let now = Instant::now();
            if now >= target {
                let slot = f.light[next_light];
                *next_id += 1;
                let sent = client.send(1, &f.reqs[slot].line(*next_id))?;
                lag.push(sent.duration_since(target).as_secs_f64());
                // Open loop: latency counts from when the request was due.
                inflight.insert(*next_id, (slot, target));
                due = target;
                next_light += 1;
                gap = next_gap(arrivals);
                continue;
            }
            if let Some((_, at, line)) = client.recv_within(target - now)? {
                on_line(at, line, &mut inflight, &mut finals)?;
            }
        } else {
            let (_, at, line) = client.recv()?;
            on_line(at, line, &mut inflight, &mut finals)?;
        }
    }
    Ok(FloodRound { finals, drain_s })
}

pub fn run_flood(cfg: &Cfg) -> Result<Report, String> {
    let mut rep = Report::default();
    let (setup_s, built) = setup_median(15, || -> Result<_, String> {
        let inputs = flood_inputs(cfg.seed);
        Ok((Daemon::start(None)?, inputs))
    });
    let (daemon, flood) = built?;
    let mut arrivals = Rng::new(cfg.seed ^ 0xA221);
    let mut client = Client::connect(daemon.server.addr(), 2)?;
    let mut tracer = Tracer::new(false);
    let mut ledger = Ledger::new();
    let mut next_id = 0u64;
    let mut lag = Lag::default();
    let mut failure = None;
    let mut busy_s = Vec::new();
    let (_, line) = client.call(0, "{\"id\":0,\"op\":\"stats\"}")?;
    ledger.used = used_by_tenant(&Json::parse(line.trim_end())?)
        .into_iter()
        .collect();
    let (plain, traced) = run_rounds(cfg, 4, &mut tracer, |tracer, timed| {
        let t0 = Instant::now();
        let round = match flood_round(
            &mut client,
            &flood,
            &mut arrivals,
            &mut next_id,
            tracer,
            &mut lag,
        ) {
            Ok(r) => r,
            Err(e) => {
                failure.get_or_insert(e);
                return t0.elapsed().as_secs_f64();
            }
        };
        if timed {
            busy_s.push(t0.elapsed().as_secs_f64());
            for f in round
                .finals
                .iter()
                .filter(|f| flood.reqs[f.slot].tenant == "light")
            {
                ledger.latencies.push(flood.reqs[f.slot].class, f.latency_s);
            }
        }
        ledger.check_round(&flood.reqs, &round.finals, &flood.twins, &mut rep);
        next_id += 1;
        match client.call(0, &format!("{{\"id\":{next_id},\"op\":\"stats\"}}")) {
            Ok((_, line)) => match Json::parse(line.trim_end()) {
                Ok(j) => {
                    ledger.reconcile(&j, &reported_evals(&flood.reqs, &round.finals), &mut rep)
                }
                Err(e) => drop(failure.get_or_insert(e)),
            },
            Err(e) => drop(failure.get_or_insert(e)),
        }
        round.drain_s
    });
    if let Some(e) = failure {
        return Err(e);
    }
    eprintln!(
        "load generator lateness: mean {:.3} ms, max {:.3} ms",
        lag.mean_s() * 1e3,
        lag.max_s * 1e3
    );
    if cfg.trace {
        let mut layers =
            crate::layers::replay(&flood.reqs, None, Some(daemon.server.addr()), &mut tracer)?;
        set_lag(&mut layers, &lag);
        layers.extend(crate::overhead_metrics(&plain, &traced));
        drop(client);
        drop(daemon);
        tracer
            .write(
                &cfg.out
                    .join(format!("spans-serve_flood-{}.jsonl", cfg.seed)),
            )
            .map_err(|e| e.to_string())?;
        rep.metrics = layers;
    } else {
        drop(client);
        drop(daemon);
        rep.push(metric("setup_s", setup_s, "s"));
        rep.push(metric("sweep_s", trace::median(&plain), "s"));
        rep.push(crate::round_rate(flood.reqs.len(), &busy_s));
        crate::latency_metrics(&mut rep, &mut ledger.latencies);
        rep.push(metric("peak_rss_mb", crate::peak_rss_mb(), "MB"));
    }
    Ok(rep)
}
