//! The layer replay of a traced run: one round's requests are fed
//! through each layer's public functions directly, from the
//! benchmark's own code, with a span around every call. The per-layer
//! metrics are derived from those spans.

use crate::inst::core_concept;
use crate::oracle::Concept;
use crate::req::{Op, Req};
use crate::trace::{self, Tracer};
use crate::{metric, Metric};
use bncg_atlas::{Atlas, BuildSpec, DynAtlas, MemoryBacking, RamBacking};
use bncg_core::concepts::{bne, bse, kbse};
use bncg_core::{CandidateStats, CheckBudget, ExecPolicy, GameState, Move, Solver, StabilityQuery};
use bncg_dynamics::round_robin;
use bncg_graph::{BitsetGraph, Graph, BITSET_MAX_N};
use bncg_serve::{parse_request, QuerySpec, Scheduler, SchedulerConfig, Server, ServerConfig};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Instant;

/// Scheduler settings shared by the daemon workloads and the replay.
pub fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    }
}

/// Up to `k` single-edge moves of the instance: removals of its first
/// edges and additions of its first non-edges.
fn sample_moves(g: &Graph, k: usize) -> Vec<(Move, Move)> {
    let mut out = Vec::new();
    for (u, v) in g.edges().take(k / 2) {
        out.push((
            Move::Remove {
                agent: u,
                target: v,
            },
            Move::BilateralAdd { u, v },
        ));
    }
    for (u, v) in g.non_edges().take(k - out.len()) {
        out.push((
            Move::BilateralAdd { u, v },
            Move::Remove {
                agent: u,
                target: v,
            },
        ));
    }
    out
}

fn scan_with_stats(state: &GameState, c: Concept) -> Option<CandidateStats> {
    let budget = CheckBudget::new(u64::MAX);
    let result = match c {
        Concept::Bne => bne::find_violation_in_with_stats(state, budget),
        Concept::KBse(k) => kbse::find_violation_in_with_stats(state, k as usize, budget),
        Concept::Bse => bse::find_violation_in_with_stats(state, budget),
        _ => return None,
    };
    result.ok().map(|(_, stats)| stats)
}

/// Replays `reqs` through every layer. `atlas` is the workload's corpus
/// for lookups (a standard n <= 5 corpus built here is used otherwise);
/// `daemon` is the workload's running daemon (a fresh one is started
/// otherwise).
pub fn replay(
    reqs: &[Req],
    atlas: Option<&DynAtlas>,
    daemon: Option<SocketAddr>,
    t: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    t.enabled = true;
    let mut out = Vec::new();
    let work: Vec<&Req> = reqs.iter().filter(|r| r.inst.is_some()).collect();
    let mut seen = HashSet::new();
    let distinct: Vec<&Req> = work
        .iter()
        .copied()
        .filter(|r| {
            seen.insert(
                r.inst
                    .as_ref()
                    .map(|i| (i.label.clone(), i.net.edges(), i.price.wire())),
            )
        })
        .collect();

    t.open("replay.protocol", 0);
    // protocol: parse every line as the daemon would.
    for (i, r) in reqs.iter().enumerate() {
        let line = r.line(i as u64 + 1);
        let parsed = t.time("protocol.parse", None, i as u64 + 1, 1, || {
            parse_request(&line)
        });
        parsed.map_err(|e| format!("replay line does not parse: {}", e.reason))?;
    }
    t.close();

    t.open("replay.graph", 0);
    // graph: BFS on both substrates (checked against the oracle's BFS),
    // canonical keys on atlas-sized graphs.
    let mut buf = Vec::new();
    for r in &distinct {
        let inst = r.inst.as_ref().expect("work has an instance");
        let n = inst.n();
        let sources = n.min(64) as u32;
        let want: Vec<Vec<u32>> = (0..sources).map(|s| inst.net.bfs(s)).collect();
        if n <= BITSET_MAX_N {
            let bits = BitsetGraph::from_graph(&inst.graph).ok_or("bitset refused n <= 64")?;
            let start = Instant::now();
            let mut got = Vec::with_capacity(n * n);
            for s in 0..sources {
                bits.bfs_distances(s, &mut buf);
                got.extend_from_slice(&buf);
            }
            t.record(
                "graph.bitset_bfs",
                start,
                Instant::now(),
                None,
                0,
                u64::from(sources),
            );
            if got != want.concat() {
                return Err(format!(
                    "{}: bitset BFS disagrees with the oracle",
                    inst.label
                ));
            }
        }
        let start = Instant::now();
        let mut got = Vec::with_capacity(n * sources as usize);
        for s in 0..sources {
            bncg_graph::bfs_distances(&inst.graph, s, &mut buf);
            got.extend_from_slice(&buf);
        }
        t.record(
            "graph.scalar_bfs",
            start,
            Instant::now(),
            None,
            0,
            u64::from(sources),
        );
        if got != want.concat() {
            return Err(format!(
                "{}: scalar BFS disagrees with the oracle",
                inst.label
            ));
        }
        if n <= 10 {
            t.time("graph.canonical_key", None, 0, 1, || {
                bncg_graph::iso::canonical_key(&inst.graph)
            });
        }
    }
    t.close();

    t.open("replay.engine", 0);
    // engine: state construction, move evaluation, move application.
    for r in &distinct {
        let inst = r.inst.as_ref().expect("work has an instance");
        let g = inst.graph.clone();
        let state = t.time("engine.state_new", None, 0, 1, || {
            GameState::new(g, inst.alpha)
        });
        let moves = sample_moves(&inst.graph, if inst.n() <= 64 { 16 } else { 4 });
        let start = Instant::now();
        for (mv, _) in &moves {
            state.evaluate_move(mv).map_err(|e| e.to_string())?;
        }
        t.record(
            "engine.evaluate_move",
            start,
            Instant::now(),
            None,
            0,
            moves.len() as u64,
        );
        let mut s = state.clone();
        let start = Instant::now();
        for (mv, undo) in &moves {
            s.apply_move(mv).map_err(|e| e.to_string())?;
            s.apply_move(undo).map_err(|e| e.to_string())?;
        }
        t.record(
            "engine.apply_move",
            start,
            Instant::now(),
            None,
            0,
            2 * moves.len() as u64,
        );
    }
    t.close();

    t.open("replay.compute", 0);
    // scan, solver and dynamics, once per distinct query.
    let mut scan = CandidateStats::default();
    let mut scans = 0u64;
    let mut seen = HashSet::new();
    for (i, r) in work.iter().enumerate() {
        let inst = r.inst.as_ref().expect("work has an instance");
        if !seen.insert((
            inst.label.clone(),
            inst.net.edges(),
            inst.price.wire(),
            format!("{:?}", r.op),
        )) {
            continue;
        }
        let id = i as u64 + 1;
        match r.op {
            Op::Check(c) | Op::Lookup(c) => {
                if c.is_exponential() && inst.n() <= BITSET_MAX_N {
                    let state = GameState::new(inst.graph.clone(), inst.alpha);
                    let start = Instant::now();
                    if let Some(s) = scan_with_stats(&state, c) {
                        t.record("scan.check", start, Instant::now(), None, id, s.evaluated);
                        scan.generated += s.generated;
                        scan.pruned += s.pruned;
                        scan.evaluated += s.evaluated;
                        scan.visited += s.visited;
                        scans += 1;
                    }
                }
                let name = if c.is_exponential() {
                    "solver.check.exact"
                } else {
                    "solver.check.poly"
                };
                let q = StabilityQuery::new(core_concept(c), &inst.graph, inst.alpha);
                let solver = Solver::new(ExecPolicy::default());
                t.time(name, None, id, 1, || solver.check(&q))
                    .map_err(|e| e.to_string())?;
            }
            Op::Trajectory { rounds, .. } => {
                let start = Instant::now();
                let o = round_robin::run_with_policy(
                    &inst.graph,
                    inst.alpha,
                    rounds,
                    &ExecPolicy::default(),
                )
                .map_err(|e| e.to_string())?;
                t.record(
                    "dynamics.trajectory",
                    start,
                    Instant::now(),
                    None,
                    id,
                    o.rounds as u64,
                );
            }
            _ => {}
        }
    }
    t.close();

    t.open("replay.atlas", 0);
    // atlas: a standard n <= 5 build in RAM, then every lookup-sized
    // instance probed against the workload's corpus (or that build).
    let mut small =
        Atlas::open(Box::new(RamBacking::new()) as Box<dyn MemoryBacking + Send + Sync>)
            .map_err(|e| e.to_string())?;
    t.time("atlas.build", None, 0, 1, || {
        bncg_atlas::build(&mut small, &BuildSpec::standard(5), u64::MAX, None)
    })
    .map_err(|e| e.to_string())?;
    let corpus = atlas.unwrap_or(&small);
    let (mut lookups, mut hits) = (0u64, 0u64);
    for (i, r) in work.iter().enumerate() {
        let inst = r.inst.as_ref().expect("work has an instance");
        if let (Op::Check(c) | Op::Lookup(c), true) = (r.op, inst.n() <= 10) {
            let hit = t.time("atlas.lookup", None, i as u64 + 1, 1, || {
                corpus.lookup(&inst.graph, core_concept(c), inst.alpha)
            });
            lookups += 1;
            hits += u64::from(hit.map_err(|e| e.to_string())?.is_some());
        }
    }
    t.close();

    t.open("replay.scheduler", 0);
    // scheduler: each request alone (submit_blocking), then the whole
    // round at once for queue wait.
    let sched = Scheduler::start(scheduler_config()).map_err(|e| e.to_string())?;
    let spec = |i: usize, r: &Req| QuerySpec {
        id: i as u64 + 1,
        tenant: r.tenant.to_string(),
        work: r.work().expect("work request"),
        resume: None,
        deadline_ms: None,
    };
    let mut submit_ns = vec![None; reqs.len()];
    let mut slices = Vec::new();
    for (i, r) in reqs.iter().enumerate().filter(|(_, r)| r.inst.is_some()) {
        let start = Instant::now();
        let line = sched.submit_blocking(spec(i, r));
        let end = Instant::now();
        t.record("scheduler.submit", start, end, None, i as u64 + 1, 1);
        submit_ns[i] = Some(end.duration_since(start).as_nanos() as f64);
        let j = crate::json::Json::parse(&line)?;
        slices.push(j.u64("slices").unwrap_or(0) as f64);
    }
    let waited_before: u64 = sched.tenant_rows().iter().map(|r| r.waited_ms).sum();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let mut batch_slices = 0u64;
    for (i, r) in reqs.iter().enumerate().filter(|(_, r)| r.inst.is_some()) {
        let tx = tx.clone();
        sched.submit(spec(i, r), Box::new(move |line| drop(tx.send(line))));
    }
    drop(tx);
    for line in rx {
        batch_slices += crate::json::Json::parse(&line)?.u64("slices").unwrap_or(0);
    }
    t.record(
        "scheduler.batch",
        start,
        Instant::now(),
        None,
        0,
        batch_slices,
    );
    let waited: u64 = sched.tenant_rows().iter().map(|r| r.waited_ms).sum::<u64>() - waited_before;
    sched.stop();
    t.close();

    t.open("replay.server", 0);
    // server: the same lines over one connection, closed loop.
    let own = match daemon {
        Some(_) => None,
        None => Some(
            Server::start(ServerConfig {
                scheduler: scheduler_config(),
                ..ServerConfig::default()
            })
            .map_err(|e| e.to_string())?,
        ),
    };
    let addr = daemon.unwrap_or_else(|| own.as_ref().expect("started").addr());
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut frontend = Vec::new();
    let mut stats_rtt = Vec::new();
    let mut lag = Vec::new();
    let mut ready = Instant::now();
    let extra_stats = (0..16).map(|_| Req::stats());
    for (i, r) in reqs.iter().cloned().chain(extra_stats).enumerate() {
        let line = r.line(i as u64 + 1) + "\n";
        let start = Instant::now();
        lag.push(start.duration_since(ready).as_nanos() as f64);
        writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        loop {
            resp.clear();
            reader.read_line(&mut resp).map_err(|e| e.to_string())?;
            if !resp.contains("\"progress\":1") {
                break;
            }
        }
        let end = Instant::now();
        ready = end;
        let wire_ns = end.duration_since(start).as_nanos() as f64;
        t.record("wire.replay", start, end, None, i as u64 + 1, 1);
        // A lookup's wire path may be an atlas hit while its scheduler
        // replay is a live check, so lookups are left out of the
        // difference.
        match (r.op, submit_ns.get(i).copied().flatten()) {
            (Op::Stats, _) => stats_rtt.push(wire_ns),
            (Op::Lookup(_), _) | (_, None) => {}
            (_, Some(s)) => frontend.push(wire_ns - s),
        }
    }
    if let Some(server) = own {
        server.stop();
    }
    t.close();

    // Metrics.
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    out.push(metric(
        "graph.bitset_bfs_ns",
        t.per_op_ns("graph.bitset_bfs"),
        "ns",
    ));
    out.push(metric(
        "graph.scalar_bfs_us",
        us(t.per_op_ns("graph.scalar_bfs")),
        "us",
    ));
    out.push(metric(
        "graph.canonical_key_us",
        us(t.per_op_ns("graph.canonical_key")),
        "us",
    ));
    out.push(metric(
        "engine.state_new_us",
        us(t.per_op_ns("engine.state_new")),
        "us",
    ));
    out.push(metric(
        "engine.evaluate_move_ns",
        t.per_op_ns("engine.evaluate_move"),
        "ns",
    ));
    out.push(metric(
        "engine.apply_move_us",
        us(t.per_op_ns("engine.apply_move")),
        "us",
    ));
    let per_scan = |v: u64| v as f64 / scans.max(1) as f64;
    out.push(metric("scan.generated", per_scan(scan.generated), "count"));
    out.push(metric("scan.evals", per_scan(scan.evaluated), "count"));
    out.push(metric("scan.visited", per_scan(scan.visited), "count"));
    out.push(metric("scan.pruned", per_scan(scan.pruned), "count"));
    out.push(metric(
        "scan.evaluated_per_generated",
        scan.evaluated as f64 / scan.generated.max(1) as f64,
        "ratio",
    ));
    out.push(metric("scan.ns_per_eval", t.per_op_ns("scan.check"), "ns"));
    out.push(metric(
        "solver.check_ms.exact",
        ms(trace::mean(&t.durations("solver.check.exact"))),
        "ms",
    ));
    out.push(metric(
        "solver.check_ms.poly",
        ms(trace::mean(&t.durations("solver.check.poly"))),
        "ms",
    ));
    out.push(metric(
        "dynamics.round_ms",
        ms(t.per_op_ns("dynamics.trajectory")),
        "ms",
    ));
    out.push(metric(
        "atlas.build_s",
        t.durations("atlas.build").iter().sum::<f64>() / 1e9,
        "s",
    ));
    out.push(metric(
        "atlas.lookup_us",
        us(t.per_op_ns("atlas.lookup")),
        "us",
    ));
    out.push(metric("atlas.lookups", lookups as f64, "count"));
    out.push(metric(
        "atlas.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "protocol.parse_us",
        us(t.per_op_ns("protocol.parse")),
        "us",
    ));
    out.push(metric(
        "scheduler.submit_us",
        us(t.per_op_ns("scheduler.submit")),
        "us",
    ));
    out.push(metric(
        "scheduler.slices_per_query",
        trace::mean(&slices),
        "count",
    ));
    out.push(metric(
        "scheduler.queue_wait_ms",
        waited as f64 / batch_slices.max(1) as f64,
        "ms",
    ));
    out.push(metric(
        "server.frontend_us",
        us(trace::median(&frontend)),
        "us",
    ));
    out.push(metric(
        "server.stats_rtt_us",
        us(trace::median(&stats_rtt)),
        "us",
    ));
    out.push(metric("load.lag_ms", ms(trace::mean(&lag)), "ms"));
    Ok(out)
}
