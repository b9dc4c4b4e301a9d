//! The circuit breaker: one policy for "may this device take work",
//! shared by placement, the accuracy ladder, device reports and the
//! snapshot.

use crate::BreakerConfig;

/// Circuit-breaker state of one pool device. Persists across drains,
/// like the device itself.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeviceHealth {
    /// Device faults since the last success.
    consecutive_faults: u32,
    /// Absolute device-clock time until which the device is
    /// quarantined.
    quarantined_until_us: f64,
    /// Permanently failed (worker panic or device hang).
    pub(crate) failed: bool,
    /// Lifetime device faults.
    pub(crate) total_faults: u64,
}

/// What one fault did to a device: nothing yet, opened its breaker
/// after `consecutive` faults, or retired it for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trip {
    None,
    Quarantined { consecutive: u32 },
    Failed,
}

impl DeviceHealth {
    /// Whether the device is inside a quarantine at absolute device
    /// clock `clock_us`.
    pub(crate) fn quarantined(&self, clock_us: f64) -> bool {
        self.quarantined_until_us > clock_us
    }

    /// `"failed"`, `"quarantined"` or `"ok"` at `clock_us`.
    pub(crate) fn label(&self, clock_us: f64) -> &'static str {
        if self.failed {
            "failed"
        } else if self.quarantined(clock_us) {
            "quarantined"
        } else {
            "ok"
        }
    }

    /// Absolute device-clock time from which the device may take work
    /// (its quarantine end, possibly in the past); `None` once failed.
    pub(crate) fn free_at(&self) -> Option<f64> {
        (!self.failed).then_some(self.quarantined_until_us)
    }

    /// A success closes the breaker: the consecutive count restarts.
    pub(crate) fn note_ok(&mut self) {
        self.consecutive_faults = 0;
    }

    /// Fold one device fault at absolute clock `clock_us`: a severe
    /// fault (hang, panic) fails the device outright; otherwise
    /// `threshold` consecutive faults quarantine it until `cooldown_us`
    /// past `clock_us`.
    pub(crate) fn note_fault(
        &mut self,
        severe: bool,
        breaker: &BreakerConfig,
        clock_us: f64,
    ) -> Trip {
        self.total_faults += 1;
        self.consecutive_faults += 1;
        if severe {
            let newly = !self.failed;
            self.failed = true;
            return if newly { Trip::Failed } else { Trip::None };
        }
        if self.consecutive_faults < breaker.threshold {
            return Trip::None;
        }
        self.quarantined_until_us = clock_us + breaker.cooldown_us;
        Trip::Quarantined {
            consecutive: self.consecutive_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BREAKER: BreakerConfig = BreakerConfig {
        threshold: 3,
        cooldown_us: 500.0,
    };

    #[test]
    fn threshold_consecutive_faults_quarantine_for_the_cooldown() {
        let mut h = DeviceHealth::default();
        assert_eq!(h.note_fault(false, &BREAKER, 10.0), Trip::None);
        assert_eq!(h.note_fault(false, &BREAKER, 20.0), Trip::None);
        assert_eq!(
            h.note_fault(false, &BREAKER, 30.0),
            Trip::Quarantined { consecutive: 3 }
        );
        assert!(h.quarantined(529.0));
        assert!(!h.quarantined(530.0), "cooldown ends at clock + 500");
        assert_eq!(h.label(100.0), "quarantined");
        assert_eq!(h.label(600.0), "ok");
        assert_eq!(h.free_at(), Some(530.0));
        assert_eq!(h.total_faults, 3);
    }

    #[test]
    fn a_success_resets_the_consecutive_count() {
        let mut h = DeviceHealth::default();
        h.note_fault(false, &BREAKER, 0.0);
        h.note_fault(false, &BREAKER, 0.0);
        h.note_ok();
        assert_eq!(h.note_fault(false, &BREAKER, 0.0), Trip::None);
        assert_eq!(h.note_fault(false, &BREAKER, 0.0), Trip::None);
        assert!(!h.quarantined(0.0));
        assert_eq!(h.total_faults, 4, "the lifetime count does not reset");
    }

    #[test]
    fn a_severe_fault_fails_the_device_and_never_quarantines_it() {
        let mut h = DeviceHealth::default();
        h.note_fault(false, &BREAKER, 0.0);
        h.note_fault(false, &BREAKER, 0.0);
        assert_eq!(h.note_fault(true, &BREAKER, 5.0), Trip::Failed);
        assert!(h.failed);
        assert!(!h.quarantined(5.0));
        assert_eq!(h.label(5.0), "failed");
        assert_eq!(h.free_at(), None);
        assert_eq!(h.note_fault(true, &BREAKER, 6.0), Trip::None, "fails once");
    }
}
