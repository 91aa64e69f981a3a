//! One operation of a workload, how it travels (as a wire line, as a
//! scheduler `Work`, or as an in-process call), and how its answer is
//! checked against the oracle.

use crate::inst::{core_concept, mv_of_json, unpack_edges, Inst};
use crate::json::Json;
use crate::oracle::{Concept, Mv, Net, BNE_BRUTE_MAX_N};
use bncg_core::CostModelSpec;
use bncg_serve::Work;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Check(Concept),
    Lookup(Concept),
    BestResponse(u32),
    Trajectory { rounds: usize, stream: bool },
    Stats,
}

#[derive(Debug, Clone)]
pub struct Req {
    pub op: Op,
    /// The instance (`None` only for `stats`).
    pub inst: Option<Inst>,
    pub tenant: &'static str,
    /// The op class the benchmark counts attempts and failures under.
    pub class: &'static str,
}

impl Req {
    pub fn new(op: Op, inst: Inst, tenant: &'static str, class: &'static str) -> Req {
        Req {
            op,
            inst: Some(inst),
            tenant,
            class,
        }
    }

    pub fn stats() -> Req {
        Req {
            op: Op::Stats,
            inst: None,
            tenant: "",
            class: "stats",
        }
    }

    /// The request as one wire line.
    pub fn line(&self, id: u64) -> String {
        let Some(inst) = &self.inst else {
            return format!("{{\"id\":{id},\"op\":\"stats\"}}");
        };
        let (op, extra) = match self.op {
            Op::Check(c) => ("check", format!("\"concept\":\"{}\",", c.token())),
            Op::Lookup(c) => ("atlas_lookup", format!("\"concept\":\"{}\",", c.token())),
            Op::BestResponse(agent) => ("best_response", format!("\"agent\":{agent},")),
            Op::Trajectory { rounds, stream } => (
                "trajectory",
                format!(
                    "\"rounds\":{rounds},{}",
                    if stream { "\"stream\":1," } else { "" }
                ),
            ),
            Op::Stats => unreachable!("stats has no instance"),
        };
        format!(
            "{{\"id\":{id},\"op\":\"{op}\",\"tenant\":\"{}\",{extra}\"alpha\":\"{}\",\"n\":{},\"edges\":{}}}",
            self.tenant,
            inst.price.wire(),
            inst.n(),
            inst.packed_edges()
        )
    }

    /// The same request as scheduler work (atlas lookups run as the
    /// live check they fall through to).
    pub fn work(&self) -> Option<Work> {
        let inst = self.inst.as_ref()?;
        let (graph, alpha, cost_model) =
            (inst.graph.clone(), inst.alpha, CostModelSpec::SumDistances);
        Some(match self.op {
            Op::Check(c) | Op::Lookup(c) => Work::Check {
                concept: core_concept(c),
                graph,
                alpha,
                cost_model,
            },
            Op::BestResponse(agent) => Work::BestResponse {
                agent,
                graph,
                alpha,
                cost_model,
            },
            Op::Trajectory { rounds, .. } => Work::Trajectory {
                graph,
                alpha,
                rounds,
                cost_model,
            },
            Op::Stats => return None,
        })
    }
}

/// An answer in the oracle's terms.
#[derive(Debug, Clone)]
pub enum Answer {
    Verdict {
        stable: bool,
        witness: Option<Mv>,
    },
    Best {
        mv: Option<Mv>,
    },
    Trajectory {
        converged: bool,
        final_net: Net,
        history: Option<Vec<Mv>>,
    },
    Stats,
}

/// Reads a final response line. `Err` for an error response or a line
/// that does not have the op's shape.
pub fn answer_of_line(req: &Req, j: &Json) -> Result<Answer, String> {
    if j.u64("ok") != Some(1) {
        return Err(format!(
            "error response: {} ({})",
            j.str("error").unwrap_or("?"),
            j.str("reason").unwrap_or("")
        ));
    }
    Ok(match req.op {
        Op::Check(_) | Op::Lookup(_) => {
            let stable = match j.str("verdict") {
                Some("stable") => true,
                Some("unstable") => false,
                other => return Err(format!("verdict {other:?}")),
            };
            let witness = match j.get("witness") {
                Some(w) => Some(mv_of_json(w)?),
                None => None,
            };
            Answer::Verdict { stable, witness }
        }
        Op::BestResponse(_) => {
            let improving = j.u64("improving").ok_or("no 'improving'")? == 1;
            let mv = match (improving, j.get("move")) {
                (true, Some(m)) => Some(mv_of_json(m)?),
                (false, None) => None,
                _ => return Err("'improving' disagrees with 'move'".into()),
            };
            Answer::Best { mv }
        }
        Op::Trajectory { .. } => {
            let inst = req.inst.as_ref().expect("trajectory has an instance");
            let edges = unpack_edges(&j.u64_list("final_edges").ok_or("no 'final_edges'")?)?;
            Answer::Trajectory {
                converged: j.u64("converged").ok_or("no 'converged'")? == 1,
                final_net: Net::from_edges(inst.n(), &edges)?,
                history: None,
            }
        }
        Op::Stats => {
            if !matches!(j.get("tenants"), Some(Json::Arr(_))) {
                return Err("stats without tenant rows".into());
            }
            Answer::Stats
        }
    })
}

/// Checks one answer against the oracle.
pub fn verify(req: &Req, ans: &Answer) -> Result<(), String> {
    let Some(inst) = &req.inst else {
        return match ans {
            Answer::Stats => Ok(()),
            _ => Err("stats answered with a work response".into()),
        };
    };
    let (net, a) = (&inst.net, inst.price);
    match (req.op, ans) {
        (Op::Check(c) | Op::Lookup(c), Answer::Verdict { stable, witness }) => {
            match (stable, witness) {
                (true, None) => net.prove_stable(c, a),
                (false, Some(w)) => net.check_witness(c, a, w),
                _ => Err("verdict and witness disagree".into()),
            }
        }
        (Op::BestResponse(agent), Answer::Best { mv }) => {
            net.check_best_response(agent, a, mv.as_ref())
        }
        (
            Op::Trajectory { .. },
            Answer::Trajectory {
                converged,
                final_net,
                history,
            },
        ) => {
            if let Some(history) = history {
                // Round-robin moves are best responses: each must be an
                // improving neighborhood change, and together they must
                // lead to the reported final graph.
                let mut g = net.clone();
                for mv in history {
                    g.check_witness(Concept::Bne, a, mv)?;
                    g = g.apply(mv)?;
                }
                if g.edges() != final_net.edges() {
                    return Err("history does not lead to the final graph".into());
                }
            }
            if *converged {
                if final_net.n > BNE_BRUTE_MAX_N {
                    return Err("converged trajectory too large to check".into());
                }
                if final_net.bne_has_violation(a) {
                    return Err("converged, but an agent still has an improving response".into());
                }
            }
            Ok(())
        }
        _ => Err(format!("{:?} answered with {ans:?}", req.op)),
    }
}

/// Remembers answers already verified, keyed by request slot, so a
/// repeated round re-verifies only answers that changed.
#[derive(Default)]
pub struct Checked {
    seen: HashMap<usize, String>,
}

impl Checked {
    /// Runs `check` for the answer rendered as `key` in `slot` unless
    /// the identical answer passed before.
    pub fn check(
        &mut self,
        slot: usize,
        key: &str,
        check: impl FnOnce() -> Result<(), String>,
    ) -> Result<(), String> {
        if self.seen.get(&slot).is_some_and(|k| k == key) {
            return Ok(());
        }
        check()?;
        self.seen.insert(slot, key.to_string());
        Ok(())
    }
}
