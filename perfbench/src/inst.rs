//! Seeded inputs: the benchmark's own RNG and graph generators, plus
//! the conversions between the program's types and the oracle's.
//!
//! Every input is drawn here from the workload seed; the program only
//! ever sees the finished graphs.

use crate::json::Json;
use crate::oracle::{Concept, Mv, Net, Price};
use bncg_core::{Alpha, Move};
use bncg_graph::Graph;

/// SplitMix64: small, seedable and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One problem instance, held both as the program's graph and as the
/// oracle's.
#[derive(Debug, Clone)]
pub struct Inst {
    pub label: String,
    pub graph: Graph,
    pub net: Net,
    pub alpha: Alpha,
    pub price: Price,
}

impl Inst {
    pub fn new(label: impl Into<String>, n: usize, edges: &[(u32, u32)], price: Price) -> Inst {
        let net = Net::from_edges(n, edges).expect("generators emit simple graphs");
        let graph =
            Graph::from_edges(n, edges.iter().copied()).expect("generators emit simple graphs");
        let alpha = Alpha::from_ratio(price.num as i64, price.den as i64).expect("positive price");
        Inst {
            label: label.into(),
            graph,
            net,
            alpha,
            price,
        }
    }

    pub fn n(&self) -> usize {
        self.net.n
    }

    /// Edges packed `(u << 32) | v` as the wire protocol carries them.
    pub fn packed_edges(&self) -> String {
        let packed: Vec<String> = self
            .net
            .edges()
            .iter()
            .map(|&(u, v)| ((u64::from(u) << 32) | u64::from(v)).to_string())
            .collect();
        format!("[{}]", packed.join(","))
    }
}

pub fn path(n: usize) -> Vec<(u32, u32)> {
    (1..n as u32).map(|v| (v - 1, v)).collect()
}

pub fn cycle(n: usize) -> Vec<(u32, u32)> {
    let mut e = path(n);
    e.push((0, n as u32 - 1));
    e
}

pub fn star(n: usize) -> Vec<(u32, u32)> {
    (1..n as u32).map(|v| (0, v)).collect()
}

/// A uniform random labelled tree (random Prüfer-free attachment:
/// node `v` joins a uniform earlier node, then labels are shuffled).
pub fn random_tree(rng: &mut Rng, n: usize) -> Vec<(u32, u32)> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    (1..n)
        .map(|v| {
            let u = rng.below(v);
            let (a, b) = (perm[u], perm[v]);
            (a.min(b), a.max(b))
        })
        .collect()
}

/// A connected graph: a random tree plus each other pair with
/// probability `p`.
pub fn random_connected(rng: &mut Rng, n: usize, p: f64) -> Vec<(u32, u32)> {
    let mut edges = random_tree(rng, n);
    let mut have = std::collections::HashSet::new();
    have.extend(edges.iter().copied());
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if !have.contains(&(u, v)) && rng.unit() < p {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// A connected graph with about `m` edges: a random tree plus random
/// extra pairs (the sparse large-`n` family).
pub fn sparse(rng: &mut Rng, n: usize, m: usize) -> Vec<(u32, u32)> {
    let mut edges = random_tree(rng, n);
    let mut have: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
    while edges.len() < m {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        let e = (u.min(v), u.max(v));
        if u != v && have.insert(e) {
            edges.push(e);
        }
    }
    edges
}

/// Relabels `edges` by a seeded permutation (the same class, new labels).
pub fn relabel(rng: &mut Rng, n: usize, edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    edges
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (perm[u as usize], perm[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect()
}

/// The smallest integer price strictly inside Lemma 2.4's window for
/// the cycle `C_n` (the window's open lower end plus one).
pub fn cycle_window_price(n: u64) -> Price {
    let lo4 = if n.is_multiple_of(2) {
        n * n - 4 * (n - 1)
    } else {
        (n + 1) * (n - 1) - 4 * (n - 1)
    };
    Price::int(lo4 / 4 + 1)
}

pub fn core_concept(c: Concept) -> bncg_core::Concept {
    match c {
        Concept::Re => bncg_core::Concept::Re,
        Concept::Bae => bncg_core::Concept::Bae,
        Concept::Ps => bncg_core::Concept::Ps,
        Concept::Bswe => bncg_core::Concept::Bswe,
        Concept::Bge => bncg_core::Concept::Bge,
        Concept::Bne => bncg_core::Concept::Bne,
        Concept::KBse(k) => bncg_core::Concept::KBse(k),
        Concept::Bse => bncg_core::Concept::Bse,
    }
}

/// The program's move in the oracle's terms.
pub fn mv_of_core(m: &Move) -> Mv {
    match m {
        Move::Remove { agent, target } => Mv::Remove {
            agent: *agent,
            target: *target,
        },
        Move::BilateralAdd { u, v } => Mv::Add { u: *u, v: *v },
        Move::Swap { agent, old, new } => Mv::Swap {
            agent: *agent,
            old: *old,
            new: *new,
        },
        Move::Neighborhood {
            center,
            remove,
            add,
        } => Mv::Neighborhood {
            center: *center,
            remove: remove.clone(),
            add: add.clone(),
        },
        Move::Coalition {
            members,
            remove_edges,
            add_edges,
        } => Mv::Coalition {
            members: members.clone(),
            remove: remove_edges.clone(),
            add: add_edges.clone(),
        },
    }
}

fn unpack(p: u64) -> Result<(u32, u32), String> {
    let (u, v) = (p >> 32, p & 0xFFFF_FFFF);
    u32::try_from(u)
        .ok()
        .zip(u32::try_from(v).ok())
        .ok_or_else(|| format!("bad packed edge {p}"))
}

pub fn unpack_edges(list: &[u64]) -> Result<Vec<(u32, u32)>, String> {
    list.iter().map(|&p| unpack(p)).collect()
}

/// A move read off a response's `witness` or `move` object.
pub fn mv_of_json(j: &Json) -> Result<Mv, String> {
    let num = |k: &str| {
        j.u64(k)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| format!("move lacks '{k}'"))
    };
    let list = |k: &str| j.u64_list(k).ok_or_else(|| format!("move lacks '{k}'"));
    let nodes = |k: &str| -> Result<Vec<u32>, String> {
        list(k)?
            .into_iter()
            .map(|v| u32::try_from(v).map_err(|_| "node out of range".to_string()))
            .collect()
    };
    Ok(match j.str("kind").ok_or("move lacks 'kind'")? {
        "remove" => Mv::Remove {
            agent: num("agent")?,
            target: num("target")?,
        },
        "add" => Mv::Add {
            u: num("u")?,
            v: num("v")?,
        },
        "swap" => Mv::Swap {
            agent: num("agent")?,
            old: num("old")?,
            new: num("new")?,
        },
        "neighborhood" => Mv::Neighborhood {
            center: num("center")?,
            remove: nodes("remove")?,
            add: nodes("add")?,
        },
        "coalition" => Mv::Coalition {
            members: nodes("members")?,
            remove: unpack_edges(&list("remove_edges")?)?,
            add: unpack_edges(&list("add_edges")?)?,
        },
        other => return Err(format!("unknown move kind '{other}'")),
    })
}
