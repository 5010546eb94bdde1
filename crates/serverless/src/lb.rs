//! Round-robin placement.
//!
//! The paper fronts its functions with NGINX in its default (round-robin)
//! mode. The platform keeps its instance pool in id order, so the pick is
//! an ordinal into the idle warm instances of that pool: no id lists, no
//! allocation.

/// NGINX's default strategy: rotate through the idle warm instances.
#[derive(Debug, Default, Clone)]
pub(crate) struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Picks the ordinal (in id order) of one of `idle` idle instances, or
    /// `None` when there is none. The cursor advances only on a pick.
    pub(crate) fn pick(&mut self, idle: usize) -> Option<usize> {
        if idle == 0 {
            return None;
        }
        let nth = self.cursor % idle;
        self.cursor = self.cursor.wrapping_add(1);
        Some(nth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        let picks: Vec<_> = (0..4).map(|_| rr.pick(3)).collect();
        assert_eq!(picks, [Some(0), Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn round_robin_empty_is_none() {
        let mut rr = RoundRobin::default();
        assert_eq!(rr.pick(0), None);
        // An empty idle set does not advance the cursor.
        assert_eq!(rr.pick(3), Some(0));
    }
}
