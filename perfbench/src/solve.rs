//! `solve_sweep`: in-process stability checks and round-robin
//! trajectories — no sockets, scheduler or atlas.
//!
//! Group A runs all nine concepts at `n <= 40` (the bitset path) on
//! families the paper proves stable (stars, cycles inside Lemma 2.4's
//! window, diameter-2 graphs at α = 1, Lemma 3.11 stretched tree stars)
//! and on random trees and sparse G(n, p) at α = 1 for the unstable
//! side. Group B runs the polynomial concepts at `n = 128..1024` (the
//! scalar and distance-matrix path past 64 bits).

use crate::inst::{self, core_concept, mv_of_core, Inst, Rng};
use crate::oracle::{Concept, Net, Price};
use crate::req::{verify, Answer, Checked, Op, Req};
use crate::trace::{self, Tracer};
use crate::{metric, run_rounds, setup_median, Cfg, Report};
use bncg_constructions::stretched::StretchedTreeStar;
use bncg_core::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg_dynamics::round_robin;
use std::time::Instant;

const TENANT: &str = "sweep";

/// Draws connected G(n, p) graphs until one has diameter `<= 2`: the
/// Proposition 3.16 family at α = 1.
fn diameter_two(rng: &mut Rng, n: usize, p: f64) -> Vec<(u32, u32)> {
    loop {
        let e = inst::random_connected(rng, n, p);
        let net = Net::from_edges(n, &e).expect("simple");
        if net.diameter().is_some_and(|d| d <= 2) {
            return e;
        }
    }
}

/// The fixed operation list of one round, drawn from `seed`.
pub fn inputs(seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    let one = Price::int(1);
    let mut reqs = Vec::new();
    let mut add = |inst: &Inst, concepts: &[Concept]| {
        for &c in concepts {
            let class = if c.is_exponential() {
                "check.exact"
            } else {
                "check.poly"
            };
            reqs.push(Req::new(Op::Check(c), inst.clone(), TENANT, class));
        }
    };
    let all8: Vec<Concept> = Concept::ALL
        .iter()
        .copied()
        .filter(|&c| c != Concept::Bse)
        .collect();
    let upto_bne = [
        Concept::Re,
        Concept::Bae,
        Concept::Ps,
        Concept::Bswe,
        Concept::Bge,
        Concept::Bne,
    ];
    let relabeled = |rng: &mut Rng, label: &str, n: usize, e: &[(u32, u32)], a: Price| {
        Inst::new(label, n, &inst::relabel(rng, n, e), a)
    };

    // Group A, stable side.
    add(
        &relabeled(&mut rng, "star40", 40, &inst::star(40), Price::int(2)),
        &all8,
    );
    add(
        &relabeled(&mut rng, "star6", 6, &inst::star(6), Price::int(2)),
        &[Concept::Bse],
    );
    let c40 = relabeled(
        &mut rng,
        "cycle40",
        40,
        &inst::cycle(40),
        inst::cycle_window_price(40),
    );
    add(&c40, &all8[..7]);
    let c16 = relabeled(
        &mut rng,
        "cycle16",
        16,
        &inst::cycle(16),
        inst::cycle_window_price(16),
    );
    add(&c16, &[Concept::KBse(3)]);
    let c6 = relabeled(
        &mut rng,
        "cycle6",
        6,
        &inst::cycle(6),
        inst::cycle_window_price(6),
    );
    add(&c6, &[Concept::Bse]);
    let d24 = diameter_two(&mut rng, 24, 0.5);
    add(&Inst::new("diam2_24", 24, &d24, one), &all8);
    let d6 = diameter_two(&mut rng, 6, 0.5);
    add(&Inst::new("diam2_6", 6, &d6, one), &[Concept::Bse]);
    let sts = StretchedTreeStar::build(1, 7, 36);
    let sts_edges: Vec<(u32, u32)> = sts.graph.edges().collect();
    add(
        &Inst::new("stretched36", sts.graph.n(), &sts_edges, Price::int(180)),
        &upto_bne,
    );

    // Group A, unstable side (α = 1, diameter >= 3 unless the draw is a star).
    let t40 = inst::random_tree(&mut rng, 40);
    add(&Inst::new("tree40", 40, &t40, one), &all8);
    // BSE's unstable side is a relabelled path, not a random tree: on a
    // few percent of random 10-node trees (and labellings) the BSE mask
    // scan runs for minutes before it reaches the improving joint add.
    add(
        &relabeled(&mut rng, "path10", 10, &inst::path(10), one),
        &[Concept::Bse],
    );
    let s40 = inst::random_connected(&mut rng, 40, 0.05);
    add(&Inst::new("gnp40", 40, &s40, one), &all8);
    // Many small draws on a fixed grid of sizes and concepts, so
    // per-call latency has enough samples and averages over instances.
    for n in [5, 14, 20, 26, 32, 38] {
        for &c in &all8 {
            for draw in 0..16 {
                let e = if draw % 2 == 0 {
                    inst::random_tree(&mut rng, n)
                } else {
                    inst::random_connected(&mut rng, n, 0.08)
                };
                add(&Inst::new("small", n, &e, one), &[c]);
            }
        }
    }
    // The path P22 at α = 1 under BNE: its first center has 20 partners,
    // the largest saving-cap memo the scan allocates densely.
    add(
        &Inst::new("path22", 22, &inst::path(22), one),
        &[Concept::Bne],
    );

    // Group B: the polynomial concepts past 64 bits.
    let poly = Concept::POLY;
    add(
        &relabeled(&mut rng, "star256", 256, &inst::star(256), Price::int(2)),
        &poly,
    );
    let c128 = relabeled(
        &mut rng,
        "cycle128",
        128,
        &inst::cycle(128),
        inst::cycle_window_price(128),
    );
    add(&c128, &poly);
    let t1024 = inst::random_tree(&mut rng, 1024);
    add(&Inst::new("tree1024", 1024, &t1024, one), &poly);
    // Four sparse draws: their twelve full RE/PS/BGE scans are the
    // slowest block after the n = 1024 check, so p99 falls inside it.
    for _ in 0..4 {
        let s512 = inst::sparse(&mut rng, 512, 4 * 512);
        add(
            &Inst::new("sparse512", 512, &s512, one),
            &[Concept::Re, Concept::Bae, Concept::Ps, Concept::Bge],
        );
    }
    let s1024 = inst::sparse(&mut rng, 1024, 4 * 1024);
    add(&Inst::new("sparse1024", 1024, &s1024, one), &[Concept::Ps]);

    // Round-robin best-response trajectories (arXiv 1203.5715).
    let traj = |label: &str, n: usize, e: &[(u32, u32)], a: Price| {
        Req::new(
            Op::Trajectory {
                rounds: 30,
                stream: false,
            },
            Inst::new(label, n, e, a),
            TENANT,
            "trajectory",
        )
    };
    let p10 = inst::relabel(&mut rng, 10, &inst::path(10));
    reqs.push(traj("path10", 10, &p10, Price::int(2)));
    let t11 = inst::random_tree(&mut rng, 11);
    reqs.push(traj("tree11", 11, &t11, Price { num: 3, den: 2 }));
    let g10 = inst::random_connected(&mut rng, 10, 0.2);
    reqs.push(traj("gnp10", 10, &g10, one));
    let t9 = inst::random_tree(&mut rng, 9);
    reqs.push(traj("tree9", 9, &t9, Price::int(4)));
    reqs
}

/// Runs one request in-process; the answer, or the program's error.
fn execute(req: &Req, tracer: &mut Tracer, id: u64) -> Result<Answer, String> {
    let inst = req.inst.as_ref().expect("sweep requests carry instances");
    match req.op {
        Op::Check(c) => {
            let name = if c.is_exponential() {
                "solver.check.exact"
            } else {
                "solver.check.poly"
            };
            let query = StabilityQuery::new(core_concept(c), &inst.graph, inst.alpha);
            let solver = Solver::new(ExecPolicy::default());
            let verdict = tracer.time(name, None, id, 1, || solver.check(&query));
            match verdict.map_err(|e| e.to_string())? {
                Verdict::Stable { .. } => Ok(Answer::Verdict {
                    stable: true,
                    witness: None,
                }),
                Verdict::Unstable { witness, .. } => Ok(Answer::Verdict {
                    stable: false,
                    witness: Some(mv_of_core(&witness)),
                }),
                Verdict::Exhausted { .. } => Err("unbounded check exhausted".into()),
            }
        }
        Op::Trajectory { rounds, .. } => {
            let start = Instant::now();
            let out = round_robin::run_with_policy(
                &inst.graph,
                inst.alpha,
                rounds,
                &ExecPolicy::default(),
            )
            .map_err(|e| e.to_string())?;
            tracer.record(
                "dynamics.trajectory",
                start,
                Instant::now(),
                None,
                id,
                out.rounds as u64,
            );
            let edges: Vec<(u32, u32)> = out.final_graph.edges().collect();
            Ok(Answer::Trajectory {
                converged: out.converged,
                final_net: Net::from_edges(inst.n(), &edges)?,
                history: Some(out.history.iter().map(mv_of_core).collect()),
            })
        }
        _ => Err("not an in-process op".into()),
    }
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let mut rep = Report::default();
    let (setup_s, reqs) = setup_median(15, || inputs(cfg.seed));
    let mut tracer = Tracer::new(false);
    let mut checked = Checked::default();
    let mut answers: Vec<Result<Answer, String>> = Vec::with_capacity(reqs.len());
    let mut next_id = 0u64;
    let mut latencies = trace::Samples::new();
    let (plain, traced) = run_rounds(cfg, 4, &mut tracer, |tracer, timed| {
        answers.clear();
        let t0 = Instant::now();
        for req in &reqs {
            next_id += 1;
            let t = Instant::now();
            answers.push(execute(req, tracer, next_id));
            if timed {
                latencies.push(req.class, t.elapsed().as_secs_f64());
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        // Checking is outside the timed section.
        for (slot, (req, ans)) in reqs.iter().zip(&answers).enumerate() {
            match ans {
                Ok(a) => {
                    let key = format!("{a:?}");
                    rep.checked(req.class, checked.check(slot, &key, || verify(req, a)));
                }
                Err(e) => {
                    eprintln!(
                        "{}: {}: {e}",
                        req.class,
                        req.inst.as_ref().map_or("", |i| &i.label)
                    );
                    rep.failed(req.class);
                }
            }
        }
        dt
    });
    if cfg.trace {
        let mut layers = crate::layers::replay(&reqs, None, None, &mut tracer)?;
        layers.extend(crate::overhead_metrics(&plain, &traced));
        tracer
            .write(
                &cfg.out
                    .join(format!("spans-solve_sweep-{}.jsonl", cfg.seed)),
            )
            .map_err(|e| e.to_string())?;
        rep.metrics = layers;
    } else {
        rep.push(metric("setup_s", setup_s, "s"));
        rep.push(metric("sweep_s", trace::median(&plain), "s"));
        rep.push(crate::round_rate(reqs.len(), &plain));
        crate::latency_metrics(&mut rep, &mut latencies);
        rep.push(metric("peak_rss_mb", crate::peak_rss_mb(), "MB"));
    }
    Ok(rep)
}
