//! The multigrid cycle, written once: Figure 1's V-cycle inside §2's full
//! multigrid recursion, over a backend of per-level operations.
//!
//! Both runtimes run this code — the virtual-rank simulator through
//! `MgHierarchy`'s backend (`DistVec`s, every kernel charged to the machine
//! model) and the message-passing ranks through `RankHierarchy`'s (owned
//! slices, real halo exchanges) — so the order of smoothing, restriction,
//! coarse solve and prolongation, and with it the bits of the result, cannot
//! differ between them.

use crate::mg::MgOptions;

/// What a backend kernel returns.
pub(crate) type Done<B> = Result<(), <B as LevelOps>::Error>;

/// What the cycle needs from one runtime: the kernels of every grid level,
/// finest (level 0) first. The last level is the bottom — it is solved
/// directly and never smoothed, restricted from or prolongated to.
pub(crate) trait LevelOps {
    /// A vector on one level.
    type Vector;
    /// What a kernel can fail with (`Infallible` off the network).
    type Error;

    fn num_levels(&self) -> usize;

    /// A fresh level-`lvl` vector.
    fn zeros(&self, lvl: usize) -> Self::Vector;

    /// `sweeps` smoothing sweeps on `A x = b`; with `from_zero`, from the
    /// zero guess whatever `x` holds (zero sweeps still zero-fill it).
    /// `scratch` is a level-`lvl` vector the sweeps may overwrite.
    fn smooth(
        &mut self,
        lvl: usize,
        b: &Self::Vector,
        x: &mut Self::Vector,
        scratch: &mut Self::Vector,
        sweeps: usize,
        from_zero: bool,
    ) -> Done<Self>;

    /// `r = b − A x` on level `lvl`.
    fn residual(
        &mut self,
        lvl: usize,
        b: &Self::Vector,
        x: &Self::Vector,
        r: &mut Self::Vector,
    ) -> Done<Self>;

    /// `c = R f`, from level `lvl` to `lvl + 1`.
    fn restrict(&mut self, lvl: usize, f: &Self::Vector, c: &mut Self::Vector) -> Done<Self>;

    /// `f = P c`, from level `lvl + 1` to `lvl`.
    fn prolong(&mut self, lvl: usize, c: &Self::Vector, f: &mut Self::Vector) -> Done<Self>;

    /// Solve `A x = b` directly on the bottom level.
    fn coarse_solve(&mut self, b: &Self::Vector, x: &mut Self::Vector) -> Done<Self>;

    /// `x += y`.
    fn add(&mut self, x: &mut Self::Vector, y: &Self::Vector);

    /// Whether this caller records the cycle's telemetry scopes (one rank
    /// of an SPMD program does, so a run counts each scope once).
    fn traced(&self) -> bool;
}

/// Work vectors of a cycle's visit to one level above the bottom.
struct VScratch<V> {
    /// This level: the residual to restrict, then the prolongated
    /// correction.
    tmp: V,
    /// Next level: the right-hand side handed down and the correction (under
    /// full multigrid, first the solution) handed back.
    rc: V,
    xc: V,
}

/// Every temporary of one preconditioner application, allocated once for
/// the whole cycle instead of on every level visit. Every vector is written
/// in full before it is read, so the set can be reused from one application
/// to the next as is.
pub(crate) struct CycleScratch<V> {
    /// Per level above the bottom, from the cycle's entry level down.
    v: Vec<VScratch<V>>,
    /// Likewise, what full multigrid adds: right-hand side and result of the
    /// level's correcting V-cycle.
    f: Vec<(V, V)>,
}

impl<V> CycleScratch<V> {
    /// Scratch for a cycle entered on level `first` of `be`.
    pub fn new<B: LevelOps<Vector = V>>(be: &B, first: usize) -> Self {
        let visited = first..be.num_levels() - 1;
        let v = visited.clone().map(|l| VScratch {
            tmp: be.zeros(l),
            rc: be.zeros(l + 1),
            xc: be.zeros(l + 1),
        });
        CycleScratch {
            v: v.collect(),
            f: visited.map(|l| (be.zeros(l), be.zeros(l))).collect(),
        }
    }
}

/// One preconditioner application: a full multigrid cycle with the
/// smoothing counts `opts` asks for (`pre_smooth`, `post_smooth`) on
/// `A x = r`, entered at level `first`, from the zero guess, written into
/// `x` (whatever it held). `ws` is [`CycleScratch::new`] for the same
/// backend and entry level.
///
/// Telemetry (when the backend is [`traced`](LevelOps::traced)): a
/// `precond` scope under the caller's current path and, inside it, per
/// level `level{N}/smooth`, `level{N}/restrict`, `level{N}/prolong` and (on
/// the bottom) `level{N}/coarse`. The level scopes are opened around
/// individual kernels — not the recursion — so every level's records are
/// siblings, ready for flat per-level aggregation.
pub(crate) fn fmg<B: LevelOps>(
    be: &mut B,
    opts: &MgOptions,
    first: usize,
    r: &B::Vector,
    x: &mut B::Vector,
    ws: &mut CycleScratch<B::Vector>,
) -> Done<B> {
    let _t = be.traced().then(|| pmg_telemetry::scope("precond"));
    fmg_level(be, opts, first, r, x, &mut ws.f, &mut ws.v)
}

/// [`fmg`], with one V-cycle in place of the full multigrid cycle.
pub(crate) fn vcycle<B: LevelOps>(
    be: &mut B,
    opts: &MgOptions,
    first: usize,
    r: &B::Vector,
    x: &mut B::Vector,
    ws: &mut CycleScratch<B::Vector>,
) -> Done<B> {
    let _t = be.traced().then(|| pmg_telemetry::scope("precond"));
    v_cycle(be, opts, first, r, x, &mut ws.v)
}

/// The `level{lvl}/{op}` scope, on a traced backend with telemetry on.
fn scope<B: LevelOps>(be: &B, lvl: usize, op: &str) -> Option<pmg_telemetry::Scope> {
    be.traced()
        .then(|| pmg_telemetry::scoped!("level{lvl}/{op}"))
        .flatten()
}

/// Figure 1's V-cycle on `A x = r` from the zero guess, written into `x`.
/// `ws[0]` is this level's scratch, `ws[1..]` the deeper levels'.
fn v_cycle<B: LevelOps>(
    be: &mut B,
    opts: &MgOptions,
    lvl: usize,
    r: &B::Vector,
    x: &mut B::Vector,
    ws: &mut [VScratch<B::Vector>],
) -> Done<B> {
    if lvl == be.num_levels() - 1 {
        let _t = scope(be, lvl, "coarse");
        return be.coarse_solve(r, x);
    }
    let (w, below) = ws.split_first_mut().expect("scratch above the bottom");
    {
        let _t = scope(be, lvl, "smooth");
        be.smooth(lvl, r, x, &mut w.tmp, opts.pre_smooth, true)?;
    }
    {
        let _t = scope(be, lvl, "restrict");
        be.residual(lvl, r, x, &mut w.tmp)?;
        be.restrict(lvl, &w.tmp, &mut w.rc)?;
    }
    v_cycle(be, opts, lvl + 1, &w.rc, &mut w.xc, below)?;
    {
        let _t = scope(be, lvl, "prolong");
        be.prolong(lvl, &w.xc, &mut w.tmp)?;
        be.add(x, &w.tmp);
    }
    if opts.post_smooth > 0 {
        let _t = scope(be, lvl, "smooth");
        be.smooth(lvl, r, x, &mut w.tmp, opts.post_smooth, false)?;
    }
    Ok(())
}

/// Full multigrid on `A x = b` from level `lvl` down, written into `x`:
/// restrict `b`, solve the coarser problem the same way, prolongate its
/// solution, correct it with one V-cycle on this level's residual.
fn fmg_level<B: LevelOps>(
    be: &mut B,
    opts: &MgOptions,
    lvl: usize,
    b: &B::Vector,
    x: &mut B::Vector,
    fs: &mut [(B::Vector, B::Vector)],
    vs: &mut [VScratch<B::Vector>],
) -> Done<B> {
    if lvl == be.num_levels() - 1 {
        let _t = scope(be, lvl, "coarse");
        return be.coarse_solve(b, x);
    }
    let ((res, corr), fs_below) = fs.split_first_mut().expect("scratch above the bottom");
    // The level's V-cycle scratch is idle until the coarser problem is
    // solved, so its hand-down pair carries that problem.
    let (w, vs_below) = vs.split_first_mut().expect("scratch above the bottom");
    {
        let _t = scope(be, lvl, "restrict");
        be.restrict(lvl, b, &mut w.rc)?;
    }
    fmg_level(be, opts, lvl + 1, &w.rc, &mut w.xc, fs_below, vs_below)?;
    {
        let _t = scope(be, lvl, "prolong");
        be.prolong(lvl, &w.xc, x)?;
    }
    be.residual(lvl, b, x, res)?;
    v_cycle(be, opts, lvl, res, corr, vs)?;
    be.add(x, corr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// A backend that computes nothing and logs every call as `{op}{lvl}`:
    /// `pre` (a from-zero smooth), `zero` (one of zero sweeps), `post`,
    /// `res`, `R`, `P`, `coarse`, and a bare `add`.
    struct Recorder {
        levels: usize,
        log: Vec<String>,
    }

    impl Recorder {
        fn log(&mut self, op: &str, lvl: usize) -> Result<(), Infallible> {
            self.log.push(format!("{op}{lvl}"));
            Ok(())
        }
    }

    impl LevelOps for Recorder {
        type Vector = ();
        type Error = Infallible;

        fn num_levels(&self) -> usize {
            self.levels
        }
        fn zeros(&self, _: usize) {}
        fn smooth(
            &mut self,
            lvl: usize,
            _: &(),
            _: &mut (),
            _: &mut (),
            sweeps: usize,
            from_zero: bool,
        ) -> Done<Self> {
            let op = match (from_zero, sweeps) {
                (true, 0) => "zero",
                (true, _) => "pre",
                (false, _) => "post",
            };
            self.log(op, lvl)
        }
        fn residual(&mut self, lvl: usize, _: &(), _: &(), _: &mut ()) -> Done<Self> {
            self.log("res", lvl)
        }
        fn restrict(&mut self, lvl: usize, _: &(), _: &mut ()) -> Done<Self> {
            self.log("R", lvl)
        }
        fn prolong(&mut self, lvl: usize, _: &(), _: &mut ()) -> Done<Self> {
            self.log("P", lvl)
        }
        fn coarse_solve(&mut self, _: &(), _: &mut ()) -> Done<Self> {
            self.log("coarse", self.levels - 1)
        }
        fn add(&mut self, _: &mut (), _: &()) {
            self.log.push("add".to_string());
        }
        fn traced(&self) -> bool {
            false
        }
    }

    /// The operations of one full multigrid cycle (with `fmg`) or V-cycle
    /// with `pre`/`post` sweeps on `levels` levels, space-separated.
    fn schedule_of(fmg: bool, levels: usize, pre: usize, post: usize) -> String {
        let opts = MgOptions {
            pre_smooth: pre,
            post_smooth: post,
            ..Default::default()
        };
        let log = Vec::new();
        let mut be = Recorder { levels, log };
        let mut ws = CycleScratch::new(&be, 0);
        let cycle = if fmg { super::fmg } else { vcycle };
        let Ok(()) = cycle(&mut be, &opts, 0, &(), &mut (), &mut ws);
        be.log.join(" ")
    }

    #[test]
    fn one_level_is_the_direct_solve() {
        for fmg in [false, true] {
            assert_eq!(schedule_of(fmg, 1, 1, 1), "coarse0", "fmg={fmg}");
        }
    }

    #[test]
    fn two_levels() {
        let v = "pre0 res0 R0 coarse1 P0 add post0";
        assert_eq!(schedule_of(false, 2, 1, 1), v);
        assert_eq!(
            schedule_of(true, 2, 1, 1),
            format!("R0 coarse1 P0 res0 {v} add")
        );
    }

    #[test]
    fn four_level_v() {
        assert_eq!(
            schedule_of(false, 4, 1, 1),
            "pre0 res0 R0 pre1 res1 R1 pre2 res2 R2 coarse3 \
             P2 add post2 P1 add post1 P0 add post0"
        );
    }

    #[test]
    fn four_level_fmg_visits_level_l_l_plus_one_times() {
        let v2 = "pre2 res2 R2 coarse3 P2 add post2";
        let v1 = format!("pre1 res1 R1 {v2} P1 add post1");
        let v0 = format!("pre0 res0 R0 {v1} P0 add post0");
        let fmg = schedule_of(true, 4, 1, 1);
        assert_eq!(
            fmg,
            format!(
                "R0 R1 R2 coarse3 \
                 P2 res2 {v2} add P1 res1 {v1} add P0 res0 {v0} add"
            )
        );
        for (lvl, visit) in ["pre0", "pre1", "pre2", "coarse3"].iter().enumerate() {
            let visits = fmg.split(' ').filter(|op| op == visit).count();
            assert_eq!(visits, lvl + 1, "level {lvl}");
        }
    }

    #[test]
    fn no_pre_smoothing_still_zero_fills_before_the_residual() {
        assert_eq!(
            schedule_of(false, 2, 0, 1),
            "zero0 res0 R0 coarse1 P0 add post0"
        );
    }

    #[test]
    fn no_post_smoothing_ends_on_add() {
        assert_eq!(schedule_of(false, 2, 1, 0), "pre0 res0 R0 coarse1 P0 add");
        assert_eq!(
            schedule_of(false, 4, 2, 0),
            "pre0 res0 R0 pre1 res1 R1 pre2 res2 R2 coarse3 P2 add P1 add P0 add"
        );
    }
}
