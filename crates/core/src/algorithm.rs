//! Kelp's resource-management algorithm (paper Algorithms 1 and 2).
//!
//! Every sampling period Kelp compares the four measurements against the
//! profile watermarks and picks an action per subdomain
//! ([`decide_high_priority`] / [`decide_low_priority`], Algorithm 1), then
//! applies it to the actuator state ([`KelpController`], Algorithm 2):
//!
//! * **High-priority subdomain** (backfilled low-priority cores): throttle
//!   removes one backfill core, boost adds one.
//! * **Low-priority subdomain**: throttle first *halves* the number of
//!   enabled prefetchers (aggressively, "to prioritize ML task
//!   performance"), then removes cores; boost first re-enables prefetchers
//!   one at a time, then adds cores back.
//!
//! The controller is pure state + transitions, so it is directly
//! unit- and property-testable; the runtime policies wrap it and translate
//! its state into cpuset / MSR writes.

use crate::measure::Measurements;
use crate::profile::WatermarkProfile;
use serde::{Deserialize, Serialize};

/// Algorithm 1's per-subdomain action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Reduce low-priority resources.
    Throttle,
    /// Grant low-priority resources.
    Boost,
    /// Leave the configuration alone.
    Nop,
}

/// Algorithm 1, lines 5–10: action for the high-priority subdomain's
/// backfilled tasks.
pub fn decide_high_priority(profile: &WatermarkProfile, m: &Measurements) -> Action {
    if profile.hi_bw_h(m) || profile.hi_lat_s(m) {
        Action::Throttle
    } else if profile.lo_bw_h(m) && profile.lo_lat_s(m) {
        Action::Boost
    } else {
        Action::Nop
    }
}

/// Algorithm 1, lines 11–16: action for the low-priority subdomain.
pub fn decide_low_priority(profile: &WatermarkProfile, m: &Measurements) -> Action {
    if profile.hi_bw_s(m) || profile.hi_lat_s(m) || profile.hi_sat_s(m) {
        Action::Throttle
    } else if profile.lo_bw_s(m) && profile.lo_lat_s(m) && profile.lo_sat_s(m) {
        Action::Boost
    } else {
        Action::Nop
    }
}

/// Bounds for the controller's actuators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KelpControllerConfig {
    /// Minimum backfilled cores in the high-priority subdomain.
    pub min_cores_hp: u32,
    /// Maximum backfilled cores in the high-priority subdomain.
    pub max_cores_hp: u32,
    /// Minimum low-priority-subdomain cores.
    pub min_cores_lp: u32,
    /// Maximum low-priority-subdomain cores.
    pub max_cores_lp: u32,
}

impl KelpControllerConfig {
    /// Validates the bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_cores_hp > self.max_cores_hp {
            return Err("hp core bounds inverted".into());
        }
        if self.min_cores_lp > self.max_cores_lp {
            return Err("lp core bounds inverted".into());
        }
        if self.min_cores_lp == 0 {
            return Err("low-priority tasks need at least one core".into());
        }
        Ok(())
    }
}

/// Algorithm 2's actuator state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KelpController {
    config: KelpControllerConfig,
    /// Backfilled low-priority cores in the high-priority subdomain.
    cores_hp: u32,
    /// Cores granted to low-priority tasks in their own subdomain.
    cores_lp: u32,
    /// Low-priority cores with L2 prefetchers still enabled.
    prefetchers_lp: u32,
}

impl KelpController {
    /// Creates a controller starting from the most generous configuration
    /// (all cores granted, all prefetchers on), as when tasks are first
    /// scheduled.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn new(config: KelpControllerConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract (see `# Panics` above)"
        )]
        config.validate().expect("invalid controller config");
        KelpController {
            config,
            cores_hp: config.max_cores_hp,
            cores_lp: config.max_cores_lp,
            prefetchers_lp: config.max_cores_lp,
        }
    }

    /// Backfilled cores in the high-priority subdomain.
    pub fn cores_hp(&self) -> u32 {
        self.cores_hp
    }

    /// Cores granted in the low-priority subdomain.
    pub fn cores_lp(&self) -> u32 {
        self.cores_lp
    }

    /// Low-priority cores with prefetchers enabled.
    pub fn prefetchers_lp(&self) -> u32 {
        self.prefetchers_lp
    }

    /// Fraction of low-priority prefetchers enabled, in `[0, 1]`.
    pub fn prefetcher_fraction(&self) -> f64 {
        if self.cores_lp == 0 {
            0.0
        } else {
            f64::from(self.prefetchers_lp.min(self.cores_lp)) / f64::from(self.cores_lp)
        }
    }

    /// Algorithm 2, `ConfigHiPriority`.
    pub fn config_high_priority(&mut self, action: Action) {
        match action {
            Action::Throttle => {
                if self.cores_hp > self.config.min_cores_hp {
                    self.cores_hp -= 1;
                }
            }
            Action::Boost => {
                if self.cores_hp < self.config.max_cores_hp {
                    self.cores_hp += 1;
                }
            }
            Action::Nop => {}
        }
    }

    /// Algorithm 2, `ConfigLoPriority`: prefetchers halve before cores are
    /// taken; prefetchers return before cores do.
    pub fn config_low_priority(&mut self, action: Action) {
        match action {
            Action::Throttle => {
                if self.prefetchers_lp > 0 {
                    self.prefetchers_lp /= 2;
                } else if self.cores_lp > self.config.min_cores_lp {
                    self.cores_lp -= 1;
                    self.prefetchers_lp = self.prefetchers_lp.min(self.cores_lp);
                }
            }
            Action::Boost => {
                if self.prefetchers_lp < self.cores_lp {
                    self.prefetchers_lp += 1;
                } else if self.cores_lp < self.config.max_cores_lp {
                    self.cores_lp += 1;
                }
            }
            Action::Nop => {}
        }
    }

    /// One full Algorithm 1 + Algorithm 2 tick.
    pub fn tick(&mut self, profile: &WatermarkProfile, m: &Measurements) -> (Action, Action) {
        let action_h = decide_high_priority(profile, m);
        let action_l = decide_low_priority(profile, m);
        self.config_high_priority(action_h);
        self.config_low_priority(action_l);
        (action_h, action_l)
    }

    /// Drops into the conservative Subdomain safe state: backfill fully
    /// withdrawn, low-priority prefetchers disabled, low-priority tasks
    /// keeping (only) their own subdomain cores. This is the KP-SD posture
    /// the hardened policy falls back to when it can no longer trust its
    /// sensors or actuators: it cannot hurt the ML task, whatever the
    /// (unknown) true contention is.
    pub fn enter_safe_state(&mut self) {
        self.cores_hp = self.config.min_cores_hp;
        self.cores_lp = self.config.max_cores_lp;
        self.prefetchers_lp = 0;
    }

    /// Invariant check used by tests: all values within bounds.
    pub fn invariants_hold(&self) -> bool {
        (self.config.min_cores_hp..=self.config.max_cores_hp).contains(&self.cores_hp)
            && (self.config.min_cores_lp..=self.config.max_cores_lp).contains(&self.cores_lp)
            && self.prefetchers_lp <= self.config.max_cores_lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Watermark;

    fn profile() -> WatermarkProfile {
        WatermarkProfile {
            socket_bw: Watermark::new(50.0, 90.0),
            socket_latency: Watermark::new(100.0, 150.0),
            socket_saturation: Watermark::new(0.01, 0.05),
            hp_domain_bw: Watermark::new(20.0, 35.0),
        }
    }

    fn config() -> KelpControllerConfig {
        KelpControllerConfig {
            min_cores_hp: 0,
            max_cores_hp: 6,
            min_cores_lp: 1,
            max_cores_lp: 12,
        }
    }

    fn cool() -> Measurements {
        Measurements {
            socket_bw_gbps: 30.0,
            socket_latency_ns: 90.0,
            socket_saturation: 0.0,
            hp_domain_bw_gbps: 10.0,
        }
    }

    fn hot() -> Measurements {
        Measurements {
            socket_bw_gbps: 100.0,
            socket_latency_ns: 200.0,
            socket_saturation: 0.2,
            hp_domain_bw_gbps: 40.0,
        }
    }

    #[test]
    fn algorithm1_decision_table() {
        let p = profile();
        assert_eq!(decide_high_priority(&p, &hot()), Action::Throttle);
        assert_eq!(decide_low_priority(&p, &hot()), Action::Throttle);
        assert_eq!(decide_high_priority(&p, &cool()), Action::Boost);
        assert_eq!(decide_low_priority(&p, &cool()), Action::Boost);

        // In the hysteresis band: NOP.
        let mid = Measurements {
            socket_bw_gbps: 70.0,
            socket_latency_ns: 120.0,
            socket_saturation: 0.03,
            hp_domain_bw_gbps: 25.0,
        };
        assert_eq!(decide_high_priority(&p, &mid), Action::Nop);
        assert_eq!(decide_low_priority(&p, &mid), Action::Nop);
    }

    #[test]
    fn high_latency_alone_throttles_both() {
        let p = profile();
        let m = Measurements {
            socket_latency_ns: 200.0,
            ..cool()
        };
        assert_eq!(decide_high_priority(&p, &m), Action::Throttle);
        assert_eq!(decide_low_priority(&p, &m), Action::Throttle);
    }

    #[test]
    fn saturation_only_throttles_low_priority_side() {
        let p = profile();
        let m = Measurements {
            socket_saturation: 0.2,
            ..cool()
        };
        // hp decision does not look at saturation...
        assert_eq!(decide_high_priority(&p, &m), Action::Boost);
        // ...but the lp decision does.
        assert_eq!(decide_low_priority(&p, &m), Action::Throttle);
    }

    #[test]
    fn throttle_halves_prefetchers_before_cores() {
        let mut c = KelpController::new(config());
        assert_eq!(c.prefetchers_lp(), 12);
        c.config_low_priority(Action::Throttle);
        assert_eq!(c.prefetchers_lp(), 6);
        assert_eq!(c.cores_lp(), 12);
        c.config_low_priority(Action::Throttle);
        c.config_low_priority(Action::Throttle);
        c.config_low_priority(Action::Throttle);
        assert_eq!(c.prefetchers_lp(), 0);
        assert_eq!(c.cores_lp(), 12, "cores untouched while prefetchers remain");
        c.config_low_priority(Action::Throttle);
        assert_eq!(c.cores_lp(), 11, "cores shrink once prefetchers are gone");
    }

    #[test]
    fn boost_restores_prefetchers_before_cores() {
        let mut c = KelpController::new(config());
        for _ in 0..16 {
            c.config_low_priority(Action::Throttle);
        }
        assert_eq!(c.cores_lp(), 1);
        assert_eq!(c.prefetchers_lp(), 0);
        c.config_low_priority(Action::Boost);
        assert_eq!(c.prefetchers_lp(), 1);
        assert_eq!(c.cores_lp(), 1);
        c.config_low_priority(Action::Boost);
        assert_eq!(c.cores_lp(), 2, "cores return after prefetchers catch up");
    }

    #[test]
    fn hp_backfill_moves_one_core_at_a_time() {
        let mut c = KelpController::new(config());
        assert_eq!(c.cores_hp(), 6);
        c.config_high_priority(Action::Throttle);
        assert_eq!(c.cores_hp(), 5);
        c.config_high_priority(Action::Boost);
        c.config_high_priority(Action::Boost);
        assert_eq!(c.cores_hp(), 6, "clamped at max");
        for _ in 0..10 {
            c.config_high_priority(Action::Throttle);
        }
        assert_eq!(c.cores_hp(), 0, "clamped at min");
    }

    #[test]
    fn nop_changes_nothing() {
        let mut c = KelpController::new(config());
        let before = c;
        c.config_high_priority(Action::Nop);
        c.config_low_priority(Action::Nop);
        assert_eq!(c, before);
    }

    #[test]
    fn tick_combines_both_algorithms() {
        let mut c = KelpController::new(config());
        let (ah, al) = c.tick(&profile(), &hot());
        assert_eq!((ah, al), (Action::Throttle, Action::Throttle));
        assert_eq!(c.cores_hp(), 5);
        assert_eq!(c.prefetchers_lp(), 6);
        assert!(c.invariants_hold());
    }

    #[test]
    fn prefetcher_fraction_tracks_cores() {
        let mut c = KelpController::new(config());
        assert_eq!(c.prefetcher_fraction(), 1.0);
        c.config_low_priority(Action::Throttle);
        assert_eq!(c.prefetcher_fraction(), 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid controller config")]
    fn rejects_invalid_config() {
        KelpController::new(KelpControllerConfig {
            min_cores_hp: 5,
            max_cores_hp: 2,
            min_cores_lp: 1,
            max_cores_lp: 12,
        });
    }

    #[test]
    fn safe_state_is_the_subdomain_posture() {
        let mut c = KelpController::new(config());
        c.config_low_priority(Action::Throttle);
        c.enter_safe_state();
        assert_eq!(c.cores_hp(), 0);
        assert_eq!(c.cores_lp(), 12);
        assert_eq!(c.prefetchers_lp(), 0);
        assert!(c.invariants_hold());
    }

    #[test]
    fn invariants_hold_under_random_action_storm() {
        let mut rng = kelp_simcore::rng::SimRng::seed_from(99);
        let mut c = KelpController::new(config());
        for _ in 0..10_000 {
            let action = match rng.below(3) {
                0 => Action::Throttle,
                1 => Action::Boost,
                _ => Action::Nop,
            };
            if rng.chance(0.5) {
                c.config_high_priority(action);
            } else {
                c.config_low_priority(action);
            }
            assert!(c.invariants_hold());
            assert!(c.prefetchers_lp() <= c.cores_lp());
        }
    }
}
