//! Kernel launches and CTA dispatchers.
//!
//! A [`KernelLaunch`] is what a host program submits to a [`crate::Stream`]:
//! a uniform per-CTA resource [`Footprint`] plus a [`CtaDispatcher`] that
//! hands out the actual work each CTA performs *at the moment the hardware
//! scheduler places it on an SM*.
//!
//! Ordinary kernels ignore the SM they land on: the attention kernel models
//! launch their grids as [`UnitRuns`] ([`KernelLaunch::from_runs`]), and
//! hand-built CTA lists go through a [`ListDispatcher`]. The POD-Attention
//! kernel implements *SM-aware CTA scheduling* (runtime operation binding,
//! §4.1 of the paper) by inspecting the SM id and its own software counters
//! inside [`CtaDispatcher::dispatch`].

use crate::work::{CtaWork, Footprint, UnitRuns, WorkUnit};

/// Decides, at dispatch time, what work the next CTA of a kernel performs.
///
/// Implementations are driven by the simulated hardware CTA scheduler: every
/// time it places a CTA of this kernel onto an SM it calls
/// [`dispatch`](CtaDispatcher::dispatch) with the SM index, mirroring how a
/// real CTA can read the `%smid` special register after launch.
///
/// The engine owns the buffer a CTA's units are written into and clears it
/// before every call, so dispatching a CTA allocates nothing once the buffer
/// has grown to the widest CTA.
///
/// # Examples
///
/// ```
/// use gpu_sim::{CtaDispatcher, CtaWork, ListDispatcher, OpClass};
///
/// let mut d = ListDispatcher::new(vec![CtaWork::single(OpClass::Decode, 1.0, 2.0)]);
/// let mut units = Vec::new();
/// d.dispatch(0, &mut units);
/// assert_eq!(units.len(), 1);
/// assert_eq!(d.remaining(), 0);
/// ```
pub trait CtaDispatcher {
    /// Number of CTAs this kernel still has to launch.
    fn remaining(&self) -> usize;

    /// Push the work units of the next CTA onto `units`, given the SM it was
    /// placed on. The CTA performs every unit pushed by this call (at least
    /// one), concurrently.
    ///
    /// Called exactly `remaining()` times over the lifetime of the kernel,
    /// each time with an empty `units`. Implementations may use `sm_id` and
    /// internal counters to perform runtime operation binding.
    fn dispatch(&mut self, sm_id: usize, units: &mut Vec<WorkUnit>);
}

/// A dispatcher that hands out a fixed list of CTAs in order, ignoring which
/// SM each CTA lands on. This models every ordinary CUDA kernel, where CTA
/// `i` always performs the work statically associated with `blockIdx == i`.
#[derive(Debug, Clone)]
pub struct ListDispatcher {
    ctas: std::collections::VecDeque<CtaWork>,
}

impl ListDispatcher {
    /// Create a dispatcher over a pre-built CTA work list.
    pub fn new(ctas: Vec<CtaWork>) -> Self {
        ListDispatcher { ctas: ctas.into() }
    }
}

impl CtaDispatcher for ListDispatcher {
    fn remaining(&self) -> usize {
        self.ctas.len()
    }

    fn dispatch(&mut self, _sm_id: usize, units: &mut Vec<WorkUnit>) {
        let cta = self
            .ctas
            .pop_front()
            .expect("dispatch called on an exhausted ListDispatcher");
        units.extend_from_slice(&cta.units);
    }
}

/// A dispatcher whose CTAs each perform the next unit of a run list.
#[derive(Debug, Clone)]
struct RunDispatcher(UnitRuns);

impl CtaDispatcher for RunDispatcher {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn dispatch(&mut self, _sm_id: usize, units: &mut Vec<WorkUnit>) {
        assert!(
            !self.0.is_empty(),
            "dispatch called on an exhausted run list"
        );
        self.0.take_into(1, units);
    }
}

/// A single kernel launch: a grid of CTAs with a uniform resource footprint.
pub struct KernelLaunch {
    /// Name used in reports (e.g. `"fa2_prefill"`).
    pub name: String,
    /// Per-CTA resources reserved by the hardware scheduler.
    pub footprint: Footprint,
    /// Source of per-CTA work, consulted at placement time.
    pub dispatcher: Box<dyn CtaDispatcher>,
    /// Optional software cap on resident CTAs per SM (used by POD-Attention's
    /// 2-vs-4 CTAs-per-SM configurations and by persistent-thread kernels).
    /// `None` means only the hardware occupancy limits apply.
    pub max_ctas_per_sm: Option<usize>,
}

impl KernelLaunch {
    /// Launch a kernel over an explicit list of CTAs.
    pub fn from_ctas(name: &str, footprint: Footprint, ctas: Vec<CtaWork>) -> Self {
        KernelLaunch {
            name: name.to_string(),
            footprint,
            dispatcher: Box::new(ListDispatcher::new(ctas)),
            max_ctas_per_sm: None,
        }
    }

    /// Launch a kernel whose CTAs each perform one unit of `runs`, in order.
    /// Building such a launch costs O(runs), not O(CTAs); the prefill and
    /// decode kernel models launch this way.
    pub fn from_runs(name: &str, footprint: Footprint, runs: UnitRuns) -> Self {
        KernelLaunch::with_dispatcher(name, footprint, Box::new(RunDispatcher(runs)))
    }

    /// Launch a kernel with a custom dispatcher (e.g. POD-Attention's
    /// SM-aware scheduler).
    pub fn with_dispatcher(
        name: &str,
        footprint: Footprint,
        dispatcher: Box<dyn CtaDispatcher>,
    ) -> Self {
        KernelLaunch {
            name: name.to_string(),
            footprint,
            dispatcher,
            max_ctas_per_sm: None,
        }
    }

    /// Cap the number of CTAs of this kernel resident on one SM.
    pub fn limit_ctas_per_sm(mut self, limit: usize) -> Self {
        self.max_ctas_per_sm = Some(limit);
        self
    }

    /// CTAs not yet dispatched.
    pub fn remaining(&self) -> usize {
        self.dispatcher.remaining()
    }
}

impl std::fmt::Debug for KernelLaunch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelLaunch")
            .field("name", &self.name)
            .field("footprint", &self.footprint)
            .field("remaining", &self.remaining())
            .field("max_ctas_per_sm", &self.max_ctas_per_sm)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::OpClass;

    #[test]
    fn list_dispatcher_preserves_order() {
        let ctas = vec![
            CtaWork::single(OpClass::Prefill, 1.0, 0.0),
            CtaWork::single(OpClass::Decode, 2.0, 0.0),
        ];
        let mut d = ListDispatcher::new(ctas);
        assert_eq!(d.remaining(), 2);
        let mut units = Vec::new();
        d.dispatch(5, &mut units);
        d.dispatch(7, &mut units);
        assert_eq!(
            units.iter().map(|u| u.flops).collect::<Vec<_>>(),
            [1.0, 2.0]
        );
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn list_dispatcher_panics_when_exhausted() {
        let mut d = ListDispatcher::new(vec![]);
        d.dispatch(0, &mut Vec::new());
    }

    #[test]
    fn run_launch_hands_out_one_unit_per_cta() {
        let a = WorkUnit::new(OpClass::Prefill, 1.0, 0.0);
        let b = WorkUnit::new(OpClass::Prefill, 2.0, 0.0);
        let mut runs = UnitRuns::new();
        runs.push(a, 2);
        runs.push(b, 1);
        let mut k = KernelLaunch::from_runs("k", Footprint::default(), runs);
        assert_eq!(k.remaining(), 3);
        let mut units = Vec::new();
        for want in [a, a, b] {
            units.clear();
            k.dispatcher.dispatch(0, &mut units);
            assert_eq!(units, [want]);
        }
        assert_eq!(k.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn run_launch_panics_when_exhausted() {
        let mut k = KernelLaunch::from_runs("k", Footprint::default(), UnitRuns::new());
        k.dispatcher.dispatch(0, &mut Vec::new());
    }

    #[test]
    fn kernel_launch_reports_remaining() {
        let k = KernelLaunch::from_ctas(
            "k",
            Footprint::new(128, 1024),
            vec![CtaWork::single(OpClass::Other, 1.0, 1.0); 7],
        );
        assert_eq!(k.remaining(), 7);
        assert_eq!(k.name, "k");
        assert!(k.max_ctas_per_sm.is_none());
    }

    #[test]
    fn limit_ctas_per_sm_is_recorded() {
        let k =
            KernelLaunch::from_ctas("k", Footprint::new(128, 1024), vec![]).limit_ctas_per_sm(2);
        assert_eq!(k.max_ctas_per_sm, Some(2));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let k = KernelLaunch::from_ctas("dbg", Footprint::default(), vec![]);
        let s = format!("{k:?}");
        assert!(s.contains("dbg"));
    }
}
