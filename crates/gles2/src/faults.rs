//! Deterministic fault injection for the simulated driver.
//!
//! Real mobile GL stacks fail in a handful of well-known places: program
//! links fail under memory pressure, texture allocations and uploads
//! return `GL_OUT_OF_MEMORY`, framebuffer completeness checks come back
//! `GL_FRAMEBUFFER_UNSUPPORTED`, readbacks fail, and — the big one — the
//! whole context is lost (`EGL_CONTEXT_LOST`), invalidating every object
//! created against it. A [`FaultPlan`] reproduces exactly those failures
//! on a deterministic, seeded schedule so recovery code can be tested in
//! CI instead of on a device that happens to be low on memory.
//!
//! A plan is installed on a [`crate::Context`] via
//! [`crate::Context::install_fault_plan`]. Every time the context reaches
//! one of the five injectable [`FaultSite`]s it asks the plan for a
//! decision ([`FaultPlan::roll`]); the plan either passes, injects a
//! typed [`crate::GlError::ResourceExhausted`], or loses the context —
//! after which every call on the context returns
//! [`crate::GlError::ContextLost`] until the context is torn down.
//!
//! Determinism: a plan's decisions are a pure function of its seed, its
//! configuration, and the sequence of `roll` calls. Two plans with the
//! same seed and configuration driven through the same call sequence make
//! identical decisions (asserted in `tests/faults.rs`).

/// The five injectable failure sites, mirroring where real ES 2 drivers
/// fail under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `glLinkProgram` fails (driver out of shader memory).
    ProgramLink,
    /// Immutable texture allocation (`glTexStorage`-style) fails.
    TextureAlloc,
    /// Texture upload (`glTexImage2D` / `glTexSubImage2D`) fails.
    TextureUpload,
    /// Framebuffer completeness check fails (`GL_FRAMEBUFFER_UNSUPPORTED`
    /// under memory pressure).
    FramebufferCheck,
    /// Pixel readback (`glReadPixels`) fails.
    Readback,
}

impl FaultSite {
    /// Every injectable site, in a stable order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::ProgramLink,
        FaultSite::TextureAlloc,
        FaultSite::TextureUpload,
        FaultSite::FramebufferCheck,
        FaultSite::Readback,
    ];

    /// Human-readable site name (appears in injected error messages).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::ProgramLink => "program link",
            FaultSite::TextureAlloc => "texture allocation",
            FaultSite::TextureUpload => "texture upload",
            FaultSite::FramebufferCheck => "framebuffer completeness",
            FaultSite::Readback => "readback",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::ProgramLink => 0,
            FaultSite::TextureAlloc => 1,
            FaultSite::TextureUpload => 2,
            FaultSite::FramebufferCheck => 3,
            FaultSite::Readback => 4,
        }
    }
}

/// A single fault decision from [`FaultPlan::roll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// No fault — the operation proceeds normally.
    Pass,
    /// Inject a transient failure at this site
    /// ([`crate::GlError::ResourceExhausted`]).
    Fault,
    /// Lose the context: the operation and every later one fail with
    /// [`crate::GlError::ContextLost`].
    LoseContext,
}

/// A seeded, deterministic schedule of driver faults.
///
/// Configure per-site probabilistic rates ([`FaultPlan::rate`] /
/// [`FaultPlan::rate_all`]), exact failures ([`FaultPlan::fail_next`],
/// [`FaultPlan::fail_nth`]), and context loss — either probabilistic
/// ([`FaultPlan::context_loss_rate`]) or at a fixed operation count
/// ([`FaultPlan::lose_context_after`], one-shot). The plan carries its
/// own PRNG (a splitmix64, hand-rolled so the simulator stays
/// dependency-free) and its own injection counters, so it can be moved
/// between contexts — the serving engine carries a worker's plan across
/// a context rebuild precisely so a one-shot loss fires exactly once.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rng: u64,
    rates: [f64; 5],
    fail_next: [u64; 5],
    fail_nth: [Option<u64>; 5],
    /// Rolls seen so far at each site.
    site_rolls: [u64; 5],
    loss_rate: f64,
    lose_after: Option<u64>,
    ops: u64,
    injected: u64,
    context_losses: u64,
}

impl FaultPlan {
    /// A plan with no faults configured, seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rng: seed,
            rates: [0.0; 5],
            fail_next: [0; 5],
            fail_nth: [None; 5],
            site_rolls: [0; 5],
            loss_rate: 0.0,
            lose_after: None,
            ops: 0,
            injected: 0,
            context_losses: 0,
        }
    }

    /// Sets the probability (clamped to `0.0..=1.0`) that a roll at
    /// `site` injects a fault.
    #[must_use]
    pub fn rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rates[site.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the same injection probability at every site.
    #[must_use]
    pub fn rate_all(mut self, rate: f64) -> FaultPlan {
        for r in &mut self.rates {
            *r = rate.clamp(0.0, 1.0);
        }
        self
    }

    /// Makes the next `count` rolls at `site` fail unconditionally —
    /// the deterministic primitive for "fails once, then succeeds"
    /// retry tests.
    #[must_use]
    pub fn fail_next(mut self, site: FaultSite, count: u64) -> FaultPlan {
        self.fail_next[site.index()] = count;
        self
    }

    /// Fails exactly the `k`-th roll at `site` (zero-based, counting that
    /// site's rolls only) — the primitive for sweeping one fault across
    /// every point of an operation sequence, where `fail_next` reaches
    /// only the first rolls.
    #[must_use]
    pub fn fail_nth(mut self, site: FaultSite, k: u64) -> FaultPlan {
        self.fail_nth[site.index()] = Some(k);
        self
    }

    /// Sets the probability (clamped to `0.0..=1.0`) that any roll loses
    /// the context.
    #[must_use]
    pub fn context_loss_rate(mut self, rate: f64) -> FaultPlan {
        self.loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Loses the context on the first roll after `ops` operations have
    /// been observed. One-shot: once fired it never fires again, even if
    /// the plan is moved to a rebuilt context.
    #[must_use]
    pub fn lose_context_after(mut self, ops: u64) -> FaultPlan {
        self.lose_after = Some(ops);
        self
    }

    /// A plan with the same configuration but an independent PRNG stream,
    /// for handing distinct-but-reproducible schedules to N workers.
    #[must_use]
    pub fn derive(&self, salt: u64) -> FaultPlan {
        let seed = mix(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultPlan {
            seed,
            rng: seed,
            rates: self.rates,
            fail_next: self.fail_next,
            fail_nth: self.fail_nth,
            site_rolls: [0; 5],
            loss_rate: self.loss_rate,
            lose_after: self.lose_after,
            ops: 0,
            injected: 0,
            context_losses: 0,
        }
    }

    /// The seed this plan's PRNG stream started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rolls observed so far (every faultable operation counts one).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Faults injected so far, context losses included.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Context losses triggered so far.
    pub fn context_losses(&self) -> u64 {
        self.context_losses
    }

    /// Decides the fate of one operation at `site`. Called by the driver
    /// at each injectable site; exposed so tests can drive a plan through
    /// a synthetic operation sequence and assert determinism.
    pub fn roll(&mut self, site: FaultSite) -> FaultOutcome {
        self.ops += 1;
        let idx = site.index();
        let nth = self.site_rolls[idx];
        self.site_rolls[idx] += 1;
        // Two draws per roll regardless of configuration, so the stream
        // a given roll sees depends only on how many rolls preceded it.
        let loss_draw = self.next_f64();
        let site_draw = self.next_f64();
        if let Some(after) = self.lose_after {
            if self.ops > after {
                self.lose_after = None;
                self.injected += 1;
                self.context_losses += 1;
                return FaultOutcome::LoseContext;
            }
        }
        if self.loss_rate > 0.0 && loss_draw < self.loss_rate {
            self.injected += 1;
            self.context_losses += 1;
            return FaultOutcome::LoseContext;
        }
        if self.fail_next[idx] > 0 || self.fail_nth[idx] == Some(nth) {
            self.fail_next[idx] = self.fail_next[idx].saturating_sub(1);
            self.injected += 1;
            return FaultOutcome::Fault;
        }
        if self.rates[idx] > 0.0 && site_draw < self.rates[idx] {
            self.injected += 1;
            return FaultOutcome::Fault;
        }
        FaultOutcome::Pass
    }

    fn next_f64(&mut self) -> f64 {
        // splitmix64: tiny, full-period, and plenty for fault schedules.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix(self.rng) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = FaultPlan::new(42).rate_all(0.3).context_loss_rate(0.05);
        let mut b = FaultPlan::new(42).rate_all(0.3).context_loss_rate(0.05);
        for i in 0..2000 {
            let site = FaultSite::ALL[i % FaultSite::ALL.len()];
            assert_eq!(a.roll(site), b.roll(site), "diverged at roll {i}");
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "a 30% rate over 2000 rolls must inject");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(1).rate_all(0.5);
        let mut b = FaultPlan::new(2).rate_all(0.5);
        let diverged = (0..256).any(|i| {
            let site = FaultSite::ALL[i % FaultSite::ALL.len()];
            a.roll(site) != b.roll(site)
        });
        assert!(diverged);
    }

    #[test]
    fn fail_next_is_exact() {
        let mut plan = FaultPlan::new(7).fail_next(FaultSite::Readback, 2);
        assert_eq!(plan.roll(FaultSite::Readback), FaultOutcome::Fault);
        assert_eq!(plan.roll(FaultSite::TextureUpload), FaultOutcome::Pass);
        assert_eq!(plan.roll(FaultSite::Readback), FaultOutcome::Fault);
        assert_eq!(plan.roll(FaultSite::Readback), FaultOutcome::Pass);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn fail_nth_fails_only_that_roll_of_its_site() {
        let mut plan = FaultPlan::new(7).fail_nth(FaultSite::TextureUpload, 2);
        let outcomes: Vec<FaultOutcome> = [0, 1, 0, 1, 1, 1]
            .map(|i| plan.roll([FaultSite::Readback, FaultSite::TextureUpload][i]))
            .into();
        assert_eq!(outcomes[4], FaultOutcome::Fault);
        assert_eq!(
            outcomes
                .iter()
                .filter(|&&o| o == FaultOutcome::Pass)
                .count(),
            5
        );
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn lose_after_is_one_shot() {
        let mut plan = FaultPlan::new(9).lose_context_after(3);
        for _ in 0..3 {
            assert_eq!(plan.roll(FaultSite::Readback), FaultOutcome::Pass);
        }
        assert_eq!(plan.roll(FaultSite::Readback), FaultOutcome::LoseContext);
        // Moved to a fresh context, the same plan never loses it again.
        for _ in 0..100 {
            assert_eq!(plan.roll(FaultSite::Readback), FaultOutcome::Pass);
        }
        assert_eq!(plan.context_losses(), 1);
    }

    #[test]
    fn derive_changes_stream_keeps_config() {
        let base = FaultPlan::new(11).rate_all(0.5).lose_context_after(4);
        let mut w0 = base.derive(0);
        let mut w1 = base.derive(1);
        assert_ne!(w0.seed(), w1.seed());
        let mut diverged = false;
        for _ in 0..256 {
            diverged |= w0.roll(FaultSite::Readback) != w1.roll(FaultSite::Readback);
        }
        assert!(diverged, "derived streams must be independent");
        // Config (here: the one-shot loss) carries over to both.
        assert_eq!(w0.context_losses() + w1.context_losses(), 2);
    }
}
