//! Generalized weighted max-min fair bandwidth allocation.
//!
//! Memory controllers arbitrate among requestors roughly fairly; a fluid
//! model of that arbitration is *weighted max-min fairness* via progressive
//! filling: every flow's rate rises proportionally to its weight until the
//! flow is satisfied (hits its demand) or one of the resources it uses
//! saturates, at which point every unfrozen flow through that resource
//! freezes at its current rate.
//!
//! Flows may traverse several resources (a remote access consumes UPI *and*
//! the target domain's channels) and may use a resource at a coefficient
//! other than 1 (snoop overhead inflates a remote flow's usage of the target
//! controller).

/// One bandwidth consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Maximum rate this flow wants (GB/s). Must be `>= 0`.
    pub demand: f64,
    /// Arbitration weight. Must be `> 0`.
    pub weight: f64,
    /// `(resource index, usage coefficient)` pairs: running the flow at rate
    /// `x` consumes `coeff * x` of each listed resource. Coefficients must be
    /// `> 0`; a resource may appear at most once.
    pub usage: Vec<(usize, f64)>,
}

impl Flow {
    /// A flow using a single resource at coefficient 1.
    pub fn simple(demand: f64, weight: f64, resource: usize) -> Self {
        Flow {
            demand,
            weight,
            usage: vec![(resource, 1.0)],
        }
    }
}

/// Result of an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-flow allocated rate (GB/s), in input order.
    pub rates: Vec<f64>,
    /// Per-resource consumed capacity (GB/s), in input order.
    pub used: Vec<f64>,
}

impl Allocation {
    /// Utilization of resource `r` given its capacity.
    pub fn utilization(&self, r: usize, capacity: f64) -> f64 {
        if capacity <= 0.0 {
            if self.used[r] > 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            (self.used[r] / capacity).min(1.0)
        }
    }
}

/// A [`Flow`] in the flat layout: its `(resource, coefficient)` pairs are
/// `usage[start..end]` of one array shared by every flow of a problem, so a
/// caller that rebuilds its flows per solve reuses two buffers instead of
/// one `Vec` per flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatFlow {
    /// Maximum rate this flow wants (GB/s). Must be `>= 0`.
    pub demand: f64,
    /// Arbitration weight. Must be `> 0`.
    pub weight: f64,
    /// Start of this flow's usage pairs.
    pub start: usize,
    /// End (exclusive) of this flow's usage pairs.
    pub end: usize,
}

/// Reusable working memory for [`allocate_into`].
///
/// Holds the progressive-filling bookkeeping buffers so a caller that
/// allocates repeatedly (the solver runs one allocation per fixed-point
/// iteration) pays for them once.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    frozen: Vec<bool>,
    remaining: Vec<f64>,
    active_weight: Vec<f64>,
}

/// Computes the weighted max-min fair allocation by progressive filling.
///
/// `capacities[r]` is the capacity of resource `r` in GB/s. Flows with zero
/// demand get zero. Flows referencing a zero-capacity resource get zero.
///
/// Allocating convenience wrapper around [`allocate_into`]: it flattens
/// `flows` into the [`FlatFlow`] layout, so the two are bit-identical for
/// the same inputs.
///
/// # Panics
///
/// Panics if a flow references an out-of-range resource, has a non-positive
/// weight, a negative demand, or a non-positive usage coefficient.
pub fn allocate(flows: &[Flow], capacities: &[f64]) -> Allocation {
    let (mut flat, mut usage) = (Vec::new(), Vec::new());
    flatten_into(flows, &mut flat, &mut usage);
    let mut rates = Vec::new();
    let mut used = Vec::new();
    let mut scratch = AllocScratch::default();
    allocate_into(
        &flat,
        &usage,
        capacities,
        &mut rates,
        &mut used,
        &mut scratch,
    );
    Allocation { rates, used }
}

/// Appends `flows` to the flat layout: each flow's usage pairs go to the
/// end of `usage`, and its [`FlatFlow`], addressing them, to `flat`.
pub fn flatten_into(flows: &[Flow], flat: &mut Vec<FlatFlow>, usage: &mut Vec<(usize, f64)>) {
    for f in flows {
        let start = usage.len();
        usage.extend_from_slice(&f.usage);
        flat.push(FlatFlow {
            demand: f.demand,
            weight: f.weight,
            start,
            end: usage.len(),
        });
    }
}

/// Headroom of the exit in [`allocate_into`]: a resource qualifies when its
/// total live demand is at most `cap - (HEADROOM * cap + HEADROOM)`.
const HEADROOM: f64 = 1e-6;

/// Largest demand for which the exit is exact: below it, the `1e-9` freeze
/// tolerance absorbs the rounding of `weight * (demand / weight)`, so a
/// flow reaching its demand level always freezes at its demand.
const EXACT_DEMAND_LIMIT: f64 = 4_194_304.0; // 2^22

/// In-place core of [`allocate`] over the flat layout: flow `i` uses the
/// pairs `usage[flows[i].start..flows[i].end]`. Writes per-flow rates and
/// per-resource usage into caller-owned buffers, reusing `scratch` for all
/// intermediate state. On reused buffers with sufficient capacity the call
/// performs no allocation.
///
/// When every resource has headroom for the total demand of the live flows
/// through it, the call skips progressive filling and gives every live flow
/// its demand: filling would freeze each of them at its demand before any
/// resource saturates (DESIGN.md §3b), so the result is bit-identical.
/// Returns whether this headroom exit answered.
///
/// # Panics
///
/// Same contract as [`allocate`].
pub fn allocate_into(
    flows: &[FlatFlow],
    usage: &[(usize, f64)],
    capacities: &[f64],
    rates: &mut Vec<f64>,
    used: &mut Vec<f64>,
    scratch: &mut AllocScratch,
) -> bool {
    let n = flows.len();
    rates.clear();
    rates.resize(n, 0.0);
    let frozen = &mut scratch.frozen;
    frozen.clear();
    frozen.resize(n, false);

    // Validate; freeze flows with zero demand, or through a dead resource,
    // at zero; and sum each resource's live demand for the headroom exit.
    let load = &mut scratch.active_weight;
    load.clear();
    load.resize(capacities.len(), 0.0);
    let mut live = 0usize;
    let mut exact = true;
    for (i, f) in flows.iter().enumerate() {
        assert!(f.weight > 0.0, "flow weight must be positive");
        assert!(f.demand >= 0.0, "flow demand must be non-negative");
        let pairs = &usage[f.start..f.end];
        for &(r, c) in pairs {
            assert!(r < capacities.len(), "flow references unknown resource {r}");
            assert!(c > 0.0, "usage coefficient must be positive");
        }
        if f.demand <= 0.0 || pairs.iter().any(|&(r, _)| capacities[r] <= 0.0) {
            frozen[i] = true;
            continue;
        }
        live += 1;
        let level = f.demand / f.weight;
        exact &= f.demand < EXACT_DEMAND_LIMIT && level > 0.0 && level < f64::INFINITY;
        for &(r, c) in pairs {
            load[r] += f.demand * c;
        }
    }
    // No live flow uses a dead resource, so only live resources need the
    // headroom. A NaN capacity fails the comparison and keeps filling.
    let headroom = exact
        && load
            .iter()
            .zip(capacities)
            .all(|(&d, &cap)| cap <= 0.0 || d <= cap - (HEADROOM * cap + HEADROOM));
    if headroom {
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                rates[i] = f.demand;
            }
        }
    } else {
        progressive_fill(flows, usage, capacities, rates, live, scratch);
    }

    // Account used capacity exactly from final rates.
    used.clear();
    used.resize(capacities.len(), 0.0);
    for (f, &rate) in flows.iter().zip(rates.iter()) {
        for &(r, c) in &usage[f.start..f.end] {
            used[r] += rate * c;
        }
    }
    headroom
}

/// Progressive filling over the `live` flows not yet frozen in
/// `scratch.frozen`, writing their rates.
fn progressive_fill(
    flows: &[FlatFlow],
    usage: &[(usize, f64)],
    capacities: &[f64],
    rates: &mut [f64],
    mut live: usize,
    scratch: &mut AllocScratch,
) {
    let AllocScratch {
        frozen,
        remaining,
        active_weight,
    } = scratch;
    remaining.clear();
    remaining.extend_from_slice(capacities);

    // Progressive filling on the per-weight "water level" `level`: an
    // unfrozen flow i currently has rate weight_i * level.
    let mut level = 0.0f64;
    while live > 0 {
        // Next freeze event: either a flow reaches its demand, or a resource
        // saturates.
        let mut next_level = f64::INFINITY;

        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                let lvl = f.demand / f.weight;
                if lvl > level && lvl < next_level {
                    next_level = lvl;
                }
                // A flow whose demand level equals the current level freezes
                // immediately below.
            }
        }

        // Resource saturation levels: remaining[r] supports an additional
        // (level' - level) * active_coeff_weight[r].
        active_weight.clear();
        active_weight.resize(capacities.len(), 0.0);
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                for &(r, c) in &usage[f.start..f.end] {
                    active_weight[r] += f.weight * c;
                }
            }
        }
        for (r, &aw) in active_weight.iter().enumerate() {
            if aw > 0.0 {
                let lvl = level + remaining[r] / aw;
                if lvl < next_level {
                    next_level = lvl;
                }
            }
        }

        if !next_level.is_finite() {
            // No event can occur (shouldn't happen with positive demands),
            // freeze everything defensively.
            return;
        }

        // Advance the water level and charge resources.
        let delta = next_level - level;
        level = next_level;
        for (r, &aw) in active_weight.iter().enumerate() {
            if aw > 0.0 {
                remaining[r] = (remaining[r] - delta * aw).max(0.0);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                rates[i] = f.weight * level;
            }
        }

        // Freeze satisfied flows at their demand, and the rest of the flows
        // on a saturated resource at their current rate.
        const EPS: f64 = 1e-9;
        let live_before = live;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if rates[i] + EPS >= f.demand {
                rates[i] = f.demand;
            } else if !usage[f.start..f.end]
                .iter()
                .any(|&(r, _)| remaining[r] <= EPS && active_weight[r] > 0.0)
            {
                continue;
            }
            frozen[i] = true;
            live -= 1;
        }

        // A stall: the event was a resource whose remaining capacity is
        // above the tolerance but too small to raise the level
        // (`level + remaining / weight == level`, at capacities of
        // millions), and nothing froze, so every later pass would repeat
        // this one. Freeze that resource's flows at their current rate. A
        // pass that froze a flow or moved the level never gets here.
        if delta == 0.0 && live == live_before {
            for (i, f) in flows.iter().enumerate() {
                let stuck = |&(r, _): &(usize, f64)| {
                    let aw = active_weight[r];
                    aw > 0.0 && level + remaining[r] / aw <= level
                };
                if !frozen[i] && usage[f.start..f.end].iter().any(stuck) {
                    frozen[i] = true;
                    live -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn unconstrained_flows_get_their_demand() {
        let flows = vec![Flow::simple(10.0, 1.0, 0), Flow::simple(5.0, 1.0, 0)];
        let a = allocate(&flows, &[100.0]);
        assert!(close(a.rates[0], 10.0));
        assert!(close(a.rates[1], 5.0));
        assert!(close(a.used[0], 15.0));
    }

    #[test]
    fn equal_weights_split_saturated_resource_evenly() {
        let flows = vec![Flow::simple(100.0, 1.0, 0), Flow::simple(100.0, 1.0, 0)];
        let a = allocate(&flows, &[60.0]);
        assert!(close(a.rates[0], 30.0));
        assert!(close(a.rates[1], 30.0));
    }

    #[test]
    fn weights_bias_the_split() {
        let flows = vec![Flow::simple(100.0, 3.0, 0), Flow::simple(100.0, 1.0, 0)];
        let a = allocate(&flows, &[80.0]);
        assert!(close(a.rates[0], 60.0));
        assert!(close(a.rates[1], 20.0));
    }

    #[test]
    fn small_demand_releases_capacity_to_others() {
        // Classic max-min: demands 10, 100, 100 on capacity 90 -> 10, 40, 40.
        let flows = vec![
            Flow::simple(10.0, 1.0, 0),
            Flow::simple(100.0, 1.0, 0),
            Flow::simple(100.0, 1.0, 0),
        ];
        let a = allocate(&flows, &[90.0]);
        assert!(close(a.rates[0], 10.0));
        assert!(close(a.rates[1], 40.0));
        assert!(close(a.rates[2], 40.0));
    }

    #[test]
    fn multi_resource_flow_limited_by_tightest_link() {
        // Flow 0 uses both resources; flow 1 only resource 1.
        // Resource 0 is tight (capacity 10) so flow 0 freezes there and
        // flow 1 takes the rest of resource 1.
        let flows = vec![
            Flow {
                demand: 100.0,
                weight: 1.0,
                usage: vec![(0, 1.0), (1, 1.0)],
            },
            Flow::simple(100.0, 1.0, 1),
        ];
        let a = allocate(&flows, &[10.0, 50.0]);
        assert!(close(a.rates[0], 10.0));
        assert!(close(a.rates[1], 40.0));
        assert!(close(a.used[1], 50.0));
    }

    #[test]
    fn usage_coefficient_inflates_consumption() {
        // Snoop overhead: the flow consumes 1.5x its rate on the resource.
        let flows = vec![Flow {
            demand: 100.0,
            weight: 1.0,
            usage: vec![(0, 1.5)],
        }];
        let a = allocate(&flows, &[30.0]);
        assert!(close(a.rates[0], 20.0));
        assert!(close(a.used[0], 30.0));
    }

    #[test]
    fn zero_demand_and_dead_resource() {
        let flows = vec![
            Flow::simple(0.0, 1.0, 0),
            Flow::simple(10.0, 1.0, 1), // dead resource
            Flow::simple(10.0, 1.0, 0),
        ];
        let a = allocate(&flows, &[50.0, 0.0]);
        assert_eq!(a.rates[0], 0.0);
        assert_eq!(a.rates[1], 0.0);
        assert!(close(a.rates[2], 10.0));
    }

    #[test]
    fn empty_inputs() {
        let a = allocate(&[], &[10.0]);
        assert!(a.rates.is_empty());
        assert!(close(a.used[0], 0.0));
    }

    #[test]
    fn utilization_helper() {
        let flows = vec![Flow::simple(30.0, 1.0, 0)];
        let a = allocate(&flows, &[60.0]);
        assert!(close(a.utilization(0, 60.0), 0.5));
        // Zero capacity with traffic reads as fully utilized.
        assert_eq!(a.utilization(0, 0.0), 1.0);
    }

    #[test]
    fn conservation_never_exceeds_capacity() {
        let flows = vec![
            Flow {
                demand: 80.0,
                weight: 2.0,
                usage: vec![(0, 1.0), (1, 0.3)],
            },
            Flow::simple(70.0, 1.0, 0),
            Flow::simple(25.0, 5.0, 1),
        ];
        let caps = [50.0, 20.0];
        let a = allocate(&flows, &caps);
        for (r, &cap) in caps.iter().enumerate() {
            assert!(a.used[r] <= cap + 1e-6, "resource {r} over capacity");
        }
        for (f, &rate) in flows.iter().zip(&a.rates) {
            assert!(rate <= f.demand + 1e-6);
        }
    }

    #[test]
    fn allocate_into_matches_allocate_with_reused_scratch() {
        // Deliberately mismatched problem sizes back to back, so a stale
        // scratch from the larger problem must not leak into the smaller one.
        let problems: Vec<(Vec<Flow>, Vec<f64>)> = vec![
            (
                vec![
                    Flow {
                        demand: 80.0,
                        weight: 2.0,
                        usage: vec![(0, 1.0), (1, 0.3)],
                    },
                    Flow::simple(70.0, 1.0, 0),
                    Flow::simple(25.0, 5.0, 1),
                ],
                vec![50.0, 20.0],
            ),
            (vec![Flow::simple(10.0, 1.0, 0)], vec![5.0]),
            (vec![], vec![10.0, 10.0, 10.0]),
        ];
        let mut rates = Vec::new();
        let mut used = Vec::new();
        let mut scratch = AllocScratch::default();
        let (mut flat, mut usage) = (Vec::new(), Vec::new());
        for (flows, caps) in &problems {
            let fresh = allocate(flows, caps);
            flat.clear();
            usage.clear();
            flatten_into(flows, &mut flat, &mut usage);
            allocate_into(&flat, &usage, caps, &mut rates, &mut used, &mut scratch);
            assert_eq!(rates, fresh.rates);
            assert_eq!(used, fresh.used);
        }
    }

    /// A resource whose remaining capacity can no longer raise the water
    /// level, yet sits above the `1e-9` saturation tolerance, stalled the
    /// filling loop forever; it now saturates that resource instead.
    #[test]
    fn filling_terminates_when_remaining_capacity_cannot_raise_the_level() {
        let flows = vec![
            Flow::simple(14769389.923565904, 4.838010453279263, 0),
            Flow {
                demand: 13381987.060317827,
                weight: 9.670485575457539,
                usage: vec![(1, 1.2289901689955012)],
            },
        ];
        let caps = [6312328.890404829, 16446325.673324369, 0.0];
        let a = allocate(&flows, &caps);
        for (r, &cap) in caps.iter().enumerate() {
            assert!(
                a.used[r] <= cap * (1.0 + 1e-12),
                "resource {r} over capacity"
            );
            assert!(a.used[r] >= cap * (1.0 - 1e-12), "resource {r} left idle");
        }
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn rejects_unknown_resource() {
        allocate(&[Flow::simple(1.0, 1.0, 3)], &[10.0]);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn rejects_bad_weight() {
        allocate(&[Flow::simple(1.0, 0.0, 0)], &[10.0]);
    }
}
