//! The correctness oracle. It shares no code with the program: its own
//! graph, its own BFS, its own cost comparison and its own reading of
//! the paper's move rules.
//!
//! * An `unstable` answer must carry a witness of a kind the concept
//!   forbids, legal on the graph, under which every agent whose consent
//!   the concept requires strictly improves.
//! * A `stable` answer must be proven here: by brute force over every
//!   single-edge and swap move for the polynomial concepts at
//!   `n <= BRUTE_MAX_N`, by brute force over every neighborhood change
//!   for BNE at `n <= BNE_BRUTE_MAX_N`, or by a family the paper proves
//!   stable (see [`Net::proven_stable`]).

use std::cmp::Ordering;
use std::collections::VecDeque;

/// Largest `n` at which the polynomial concepts are brute-forced.
pub const BRUTE_MAX_N: usize = 40;
/// Largest `n` at which BNE is brute-forced over all neighborhoods.
pub const BNE_BRUTE_MAX_N: usize = 12;

/// The nine concepts, in the oracle's own terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Concept {
    Re,
    Bae,
    Ps,
    Bswe,
    Bge,
    Bne,
    KBse(u32),
    Bse,
}

impl Concept {
    pub const ALL: [Concept; 9] = [
        Concept::Re,
        Concept::Bae,
        Concept::Ps,
        Concept::Bswe,
        Concept::Bge,
        Concept::Bne,
        Concept::KBse(2),
        Concept::KBse(3),
        Concept::Bse,
    ];
    /// The concepts the program checks in polynomial time.
    pub const POLY: [Concept; 5] = [
        Concept::Ps,
        Concept::Bswe,
        Concept::Bge,
        Concept::Re,
        Concept::Bae,
    ];

    pub fn token(self) -> String {
        match self {
            Concept::Re => "re".into(),
            Concept::Bae => "bae".into(),
            Concept::Ps => "ps".into(),
            Concept::Bswe => "bswe".into(),
            Concept::Bge => "bge".into(),
            Concept::Bne => "bne".into(),
            Concept::KBse(k) => format!("kbse{k}"),
            Concept::Bse => "bse".into(),
        }
    }

    pub fn is_exponential(self) -> bool {
        matches!(self, Concept::Bne | Concept::KBse(_) | Concept::Bse)
    }
}

/// An edge price `num / den`, `den > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Price {
    pub num: u64,
    pub den: u64,
}

impl Price {
    pub fn int(v: u64) -> Price {
        Price { num: v, den: 1 }
    }

    pub fn wire(self) -> String {
        if self.den == 1 {
            self.num.to_string()
        } else {
            format!("{}/{}", self.num, self.den)
        }
    }
}

/// An agent's cost: unreachable count first, then `α·deg + Σ dist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    unreachable: u64,
    deg: u64,
    dist: u64,
}

impl Cost {
    fn lt(&self, other: &Cost, a: Price) -> bool {
        let key = |c: &Cost| {
            u128::from(a.num) * u128::from(c.deg) + u128::from(a.den) * u128::from(c.dist)
        };
        match self.unreachable.cmp(&other.unreachable) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => key(self) < key(other),
        }
    }
}

/// Consenting agents, removed edges and added edges of a move.
type Parts = (Vec<u32>, Vec<(u32, u32)>, Vec<(u32, u32)>);

/// A move, as read off the program's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mv {
    Remove {
        agent: u32,
        target: u32,
    },
    Add {
        u: u32,
        v: u32,
    },
    Swap {
        agent: u32,
        old: u32,
        new: u32,
    },
    Neighborhood {
        center: u32,
        remove: Vec<u32>,
        add: Vec<u32>,
    },
    Coalition {
        members: Vec<u32>,
        remove: Vec<(u32, u32)>,
        add: Vec<(u32, u32)>,
    },
}

impl Mv {
    /// The agents whose strict improvement the move needs, and the
    /// edges it removes and adds.
    fn parts(&self) -> Parts {
        match self {
            Mv::Remove { agent, target } => (vec![*agent], vec![(*agent, *target)], vec![]),
            Mv::Add { u, v } => (vec![*u, *v], vec![], vec![(*u, *v)]),
            Mv::Swap { agent, old, new } => (
                vec![*agent, *new],
                vec![(*agent, *old)],
                vec![(*agent, *new)],
            ),
            Mv::Neighborhood {
                center,
                remove,
                add,
            } => {
                let mut who = vec![*center];
                who.extend(add);
                (
                    who,
                    remove.iter().map(|&r| (*center, r)).collect(),
                    add.iter().map(|&a| (*center, a)).collect(),
                )
            }
            Mv::Coalition {
                members,
                remove,
                add,
            } => (members.clone(), remove.clone(), add.clone()),
        }
    }
}

/// The oracle's own simple undirected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    pub n: usize,
    adj: Vec<Vec<u32>>,
}

impl Net {
    pub fn new(n: usize) -> Net {
        Net {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Net, String> {
        let mut g = Net::new(n);
        for &(u, v) in edges {
            if u == v || u as usize >= n || v as usize >= n || g.has(u, v) {
                return Err(format!("bad edge ({u},{v}) for n = {n}"));
            }
            g.add(u, v);
        }
        Ok(g)
    }

    pub fn has(&self, u: u32, v: u32) -> bool {
        let (a, b) = if self.adj[u as usize].len() <= self.adj[v as usize].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].contains(&b)
    }

    pub fn add(&mut self, u: u32, v: u32) {
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
    }

    pub fn remove(&mut self, u: u32, v: u32) {
        self.adj[u as usize].retain(|&x| x != v);
        self.adj[v as usize].retain(|&x| x != u);
    }

    pub fn deg(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }

    pub fn m(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Edges as sorted `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = (0..self.n as u32)
            .flat_map(|u| {
                self.adj[u as usize]
                    .iter()
                    .filter(move |&&v| u < v)
                    .map(move |&v| (u, v))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Hop distances from `s`; `u32::MAX` marks unreachable nodes.
    pub fn bfs(&self, s: u32) -> Vec<u32> {
        let mut d = vec![u32::MAX; self.n];
        let mut q = VecDeque::new();
        d[s as usize] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &v in &self.adj[u as usize] {
                if d[v as usize] == u32::MAX {
                    d[v as usize] = d[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        d
    }

    fn cost(&self, u: u32) -> Cost {
        let d = self.bfs(u);
        let mut c = Cost {
            unreachable: 0,
            deg: self.deg(u) as u64,
            dist: 0,
        };
        for x in d {
            if x == u32::MAX {
                c.unreachable += 1;
            } else {
                c.dist += u64::from(x);
            }
        }
        c
    }

    /// Eccentricity of every node's BFS maximum, `None` if disconnected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for s in 0..self.n as u32 {
            let d = self.bfs(s);
            let far = *d.iter().max()?;
            if far == u32::MAX {
                return None;
            }
            best = best.max(far);
        }
        Some(best)
    }

    pub fn is_connected(&self) -> bool {
        self.n == 0 || self.bfs(0).iter().all(|&x| x != u32::MAX)
    }

    pub fn is_tree(&self) -> bool {
        self.is_connected() && self.m() + 1 == self.n
    }

    fn is_star(&self) -> bool {
        self.n >= 2
            && self.m() == self.n - 1
            && (0..self.n as u32).any(|c| self.deg(c) == self.n - 1)
    }

    fn is_cycle(&self) -> bool {
        self.n >= 3 && self.is_connected() && (0..self.n as u32).all(|u| self.deg(u) == 2)
    }

    /// Whether the paper proves this graph stable for `c` at price `a`.
    ///
    /// * `α ≤ 1`: no removal pays for itself, so every graph is in RE.
    /// * Prop. 3.16: for `α < 1` the clique is in BSE.
    /// * Trees are in RE: every removal disconnects the remover.
    /// * Prop. 3.16: at `α = 1` exactly the graphs of diameter ≤ 2 are
    ///   in BSE; for `α ≥ 1` the star is in BSE.
    /// * Lemma 2.4: the cycle `C_n` is in BSE for `α` in
    ///   `(n²/4 − (n−1), n(n−2)/4]` (even `n`) or
    ///   `((n+1)(n−1)/4 − (n−1), (n−1)²/4]` (odd `n`).
    /// * Lemma 3.11: a stretched tree star (`k = 1`) is in BNE when
    ///   `3n·depth/α + 1 ≤ α/(3|T|·depth)`; see [`stretched_star_in_bne`].
    ///
    /// BSE stability implies stability for every other concept, and BNE
    /// for every polynomial one.
    pub fn proven_stable(&self, c: Concept, a: Price) -> bool {
        if c == Concept::Re && (a.num <= a.den || self.is_tree()) {
            return true;
        }
        let clique = self.m() == self.n * (self.n - 1) / 2;
        let in_bse = (a.num < a.den && clique)
            || (a.num == a.den && self.diameter().is_some_and(|d| d <= 2))
            || (a.num >= a.den && self.is_star())
            || (self.is_cycle() && cycle_window(self.n as u64, a));
        if in_bse {
            return true;
        }
        let bne_implies = matches!(
            c,
            Concept::Re | Concept::Bae | Concept::Ps | Concept::Bswe | Concept::Bge | Concept::Bne
        );
        bne_implies && stretched_star_in_bne(self, a)
    }

    /// The graph after `mv`, if its edits are legal here.
    pub fn apply(&self, mv: &Mv) -> Result<Net, String> {
        let (_, rem, add) = mv.parts();
        let mut g = self.clone();
        for (u, v) in rem {
            if u as usize >= self.n || v as usize >= self.n || !g.has(u, v) {
                return Err(format!("removes a missing edge ({u},{v})"));
            }
            g.remove(u, v);
        }
        for (u, v) in add {
            if u == v || u as usize >= self.n || v as usize >= self.n || g.has(u, v) {
                return Err(format!("adds an invalid edge ({u},{v})"));
            }
            g.add(u, v);
        }
        Ok(g)
    }

    /// Whether every consenting agent strictly improves under `mv`.
    fn improves_all(&self, mv: &Mv, a: Price) -> Result<bool, String> {
        let after = self.apply(mv)?;
        let (who, _, _) = mv.parts();
        Ok(who.iter().all(|&u| after.cost(u).lt(&self.cost(u), a)))
    }

    /// Checks that `mv` is a move `c` forbids and that it improves every
    /// agent whose consent it needs.
    pub fn check_witness(&self, c: Concept, a: Price, mv: &Mv) -> Result<(), String> {
        let (who, rem, add) = mv.parts();
        let mut members = who.clone();
        members.sort_unstable();
        members.dedup();
        if members.len() != who.len() || members.iter().any(|&u| u as usize >= self.n) {
            return Err("consenting agents repeat or are out of range".into());
        }
        let kind_ok = match (c, mv) {
            (Concept::Re, Mv::Remove { .. }) => true,
            (Concept::Bae, Mv::Add { .. }) => true,
            (Concept::Ps, Mv::Remove { .. } | Mv::Add { .. }) => true,
            (Concept::Bswe, Mv::Swap { .. }) => true,
            (Concept::Bge, Mv::Remove { .. } | Mv::Add { .. } | Mv::Swap { .. }) => true,
            (Concept::Bne, Mv::Coalition { .. }) => false,
            (Concept::Bne, _) => true,
            (Concept::KBse(k), _) => members.len() <= k as usize,
            (Concept::Bse, _) => true,
            _ => false,
        };
        if !kind_ok {
            return Err(format!("{mv:?} is not a {} move", c.token()));
        }
        // Coalition rules: removed edges touch the coalition, added
        // edges lie inside it.
        let inside = |u: u32| members.binary_search(&u).is_ok();
        if rem.iter().any(|&(u, v)| !inside(u) && !inside(v))
            || add.iter().any(|&(u, v)| !inside(u) || !inside(v))
        {
            return Err(format!("{mv:?} edits edges outside its coalition"));
        }
        if let Mv::Swap { agent, old, new } = mv {
            if old == new || agent == new {
                return Err("degenerate swap".into());
            }
        }
        if self.improves_all(mv, a)? {
            Ok(())
        } else {
            Err(format!("{mv:?} does not improve every consenting agent"))
        }
    }

    /// Brute force: does some single-edge or swap move `c` forbids
    /// improve every agent it needs? Only for the polynomial concepts.
    pub fn poly_has_violation(&self, c: Concept, a: Price) -> bool {
        let base: Vec<Cost> = (0..self.n as u32).map(|u| self.cost(u)).collect();
        let better = |g: &Net, u: u32| g.cost(u).lt(&base[u as usize], a);
        let removes = matches!(c, Concept::Re | Concept::Ps | Concept::Bge);
        let adds = matches!(c, Concept::Bae | Concept::Ps | Concept::Bge);
        let swaps = matches!(c, Concept::Bswe | Concept::Bge);
        let mut g = self.clone();
        for u in 0..self.n as u32 {
            for v in 0..self.n as u32 {
                if u == v {
                    continue;
                }
                if removes && self.has(u, v) {
                    g.remove(u, v);
                    let hit = better(&g, u);
                    g.add(u, v);
                    if hit {
                        return true;
                    }
                }
                if adds && u < v && !self.has(u, v) {
                    g.add(u, v);
                    let hit = better(&g, u) && better(&g, v);
                    g.remove(u, v);
                    if hit {
                        return true;
                    }
                }
                if swaps && self.has(u, v) {
                    for w in 0..self.n as u32 {
                        if w == u || self.has(u, w) {
                            continue;
                        }
                        g.remove(u, v);
                        g.add(u, w);
                        let hit = better(&g, u) && better(&g, w);
                        g.remove(u, w);
                        g.add(u, v);
                        if hit {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Brute force over every neighborhood change of agent `c` that
    /// every added partner accepts (each strictly improves): the lowest
    /// cost for `c` among those that strictly improve it, if any.
    fn best_feasible(&self, c: u32, a: Price) -> Option<Cost> {
        let base: Vec<Cost> = (0..self.n as u32).map(|u| self.cost(u)).collect();
        let others: Vec<u32> = (0..self.n as u32).filter(|&x| x != c).collect();
        let current = others
            .iter()
            .enumerate()
            .filter(|&(_, &x)| self.has(c, x))
            .fold(0u64, |m, (i, _)| m | 1 << i);
        let mut best: Option<Cost> = None;
        for mask in (0u64..(1u64 << others.len())).filter(|&m| m != current) {
            let mut g = self.clone();
            let mut added = Vec::new();
            for (i, &x) in others.iter().enumerate() {
                match (mask >> i & 1 == 1, self.has(c, x)) {
                    (true, false) => {
                        g.add(c, x);
                        added.push(x);
                    }
                    (false, true) => g.remove(c, x),
                    _ => {}
                }
            }
            let mine = g.cost(c);
            if mine.lt(&base[c as usize], a)
                && best.is_none_or(|b| mine.lt(&b, a))
                && added.iter().all(|&x| g.cost(x).lt(&base[x as usize], a))
            {
                best = Some(mine);
            }
        }
        best
    }

    /// Whether some agent has an improving best response (the graph is
    /// not in BNE).
    pub fn bne_has_violation(&self, a: Price) -> bool {
        (0..self.n as u32).any(|c| self.best_feasible(c, a).is_some())
    }

    /// Checks a best-response answer for `agent`: `None` must mean no
    /// improving feasible change exists; `Some(mv)` must be a feasible
    /// improving change of `agent`'s neighborhood that reaches the
    /// optimal cost.
    pub fn check_best_response(&self, agent: u32, a: Price, mv: Option<&Mv>) -> Result<(), String> {
        if self.n > BNE_BRUTE_MAX_N {
            return Err(format!("best response at n = {} has no proof here", self.n));
        }
        let best = self.best_feasible(agent, a);
        match (mv, best) {
            (None, None) => Ok(()),
            (None, Some(_)) => Err(format!(
                "agent {agent} has an improving response, none reported"
            )),
            (Some(mv), None) => Err(format!("{mv:?} reported, but agent {agent} cannot improve")),
            (Some(mv), Some(best)) => {
                let center = match mv {
                    Mv::Neighborhood { center, .. } => *center,
                    _ => return Err(format!("{mv:?} is not a neighborhood move")),
                };
                if center != agent {
                    return Err(format!("{mv:?} is not agent {agent}'s move"));
                }
                self.check_witness(Concept::Bne, a, mv)?;
                let got = self.apply(mv)?.cost(agent);
                if best.lt(&got, a) {
                    Err(format!("{mv:?} is improving but not optimal"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// A stable verdict is accepted only with a proof.
    pub fn prove_stable(&self, c: Concept, a: Price) -> Result<(), String> {
        if self.proven_stable(c, a) {
            return Ok(());
        }
        if !c.is_exponential() && self.n <= BRUTE_MAX_N {
            return if self.poly_has_violation(c, a) {
                Err(format!(
                    "{} stable verdict, but brute force finds a violation",
                    c.token()
                ))
            } else {
                Ok(())
            };
        }
        if c == Concept::Bne && self.n <= BNE_BRUTE_MAX_N {
            return if self.bne_has_violation(a) {
                Err("bne stable verdict, but brute force finds a violation".into())
            } else {
                Ok(())
            };
        }
        Err(format!(
            "{} stable verdict at n = {} has no proof here",
            c.token(),
            self.n
        ))
    }
}

/// Lemma 2.4's window, compared in quarter units.
fn cycle_window(n: u64, a: Price) -> bool {
    let (lo4, hi4) = if n.is_multiple_of(2) {
        (n * n - 4 * (n - 1), n * (n - 2))
    } else {
        ((n + 1) * (n - 1) - 4 * (n - 1), (n - 1) * (n - 1))
    };
    let q = u128::from(a.num) * 4;
    let den = u128::from(a.den);
    q > u128::from(lo4) * den && q <= u128::from(hi4) * den
}

/// Lemma 3.11 for `k = 1`, measured on the graph itself: node 0 is the
/// root, its subtrees are isomorphic copies of the stretched tree `T`
/// (checked by size and shape here: a tree whose copies all have
/// `(n − 1) / deg(0)` nodes), and the inequality
/// `(3n·depth + α)·(3|T|·depth) ≤ α²` (denominators cleared) holds.
fn stretched_star_in_bne(g: &Net, a: Price) -> bool {
    if !g.is_tree() || g.n < 4 {
        return false;
    }
    let copies = g.deg(0);
    if copies == 0 || !(g.n - 1).is_multiple_of(copies) {
        return false;
    }
    let t = ((g.n - 1) / copies) as u128;
    // Every copy must have exactly |T| nodes: count nodes under each
    // child of the root.
    let d = g.bfs(0);
    let mut sizes = Vec::new();
    for &child in &g.adj[0] {
        let mut seen = vec![false; g.n];
        seen[0] = true;
        seen[child as usize] = true;
        let mut stack = vec![child];
        let mut count = 0u128;
        while let Some(u) = stack.pop() {
            count += 1;
            for &v in &g.adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        sizes.push(count);
    }
    if sizes.iter().any(|&s| s != t) {
        return false;
    }
    let depth = u128::from(*d.iter().max().expect("n >= 4"));
    let (num, den, n) = (u128::from(a.num), u128::from(a.den), g.n as u128);
    (3 * n * depth * den + num) * (3 * t * depth * den) <= num * num
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Net {
        let e: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        Net::from_edges(n, &e).unwrap()
    }

    #[test]
    fn the_path_endpoint_add_is_a_witness() {
        let p5 = path(5);
        let a = Price::int(2);
        assert!(p5
            .check_witness(Concept::Bae, a, &Mv::Add { u: 0, v: 4 })
            .is_ok());
        assert!(p5
            .check_witness(Concept::Bae, a, &Mv::Add { u: 1, v: 2 })
            .is_err());
        assert!(p5.poly_has_violation(Concept::Ps, a));
        assert!(p5.bne_has_violation(a));
    }

    #[test]
    fn the_star_is_proven_and_brute_force_agrees() {
        let e: Vec<(u32, u32)> = (1..7).map(|v| (0, v)).collect();
        let star = Net::from_edges(7, &e).unwrap();
        for c in Concept::POLY {
            assert!(star.proven_stable(c, Price::int(2)));
            assert!(!star.poly_has_violation(c, Price::int(2)));
        }
        assert!(!star.bne_has_violation(Price::int(2)));
    }
}
