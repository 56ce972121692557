//! A next-line (adjacent-line) prefetcher for the L2.
//!
//! Sandy Bridge ships several prefetchers; a single next-line stream
//! prefetcher is enough to give streaming workloads (SIRE/RSM) realistic
//! behaviour: on an L2 demand miss the subsequent line is installed into L2
//! so a forward stream pays roughly every other miss at L2 while the L3 and
//! DRAM still see the full traffic.

/// Tracks recent miss lines and decides what to prefetch.
#[derive(Clone, Debug, Default)]
pub struct NextLinePrefetcher {
    last_miss: Option<u64>,
    issued: u64,
    enabled: bool,
}

impl NextLinePrefetcher {
    pub fn new(enabled: bool) -> Self {
        NextLinePrefetcher { last_miss: None, issued: 0, enabled }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.last_miss = None;
        }
    }

    /// Called on an L2 demand miss at `line`; returns a line to prefetch
    /// (if the miss extends a forward stream).
    #[inline]
    pub fn on_miss(&mut self, line: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let stream = matches!(self.last_miss, Some(prev) if line == prev + 1 || line == prev + 2);
        self.last_miss = Some(line);
        if stream {
            self.issued += 1;
            Some(line + 1)
        } else {
            None
        }
    }

    /// Prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_forward_stream() {
        let mut p = NextLinePrefetcher::new(true);
        assert_eq!(p.on_miss(100), None, "first miss trains only");
        assert_eq!(p.on_miss(101), Some(102));
        assert_eq!(p.on_miss(103), Some(104), "stride-2 from skip counts");
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn random_misses_do_not_trigger() {
        let mut p = NextLinePrefetcher::new(true);
        p.on_miss(100);
        assert_eq!(p.on_miss(500), None);
        assert_eq!(p.on_miss(10), None);
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let mut p = NextLinePrefetcher::new(false);
        p.on_miss(1);
        assert_eq!(p.on_miss(2), None);
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn toggle_resets_training() {
        let mut p = NextLinePrefetcher::new(true);
        p.on_miss(1);
        p.set_enabled(false);
        p.set_enabled(true);
        assert_eq!(p.on_miss(2), None, "training lost across disable");
    }
}
