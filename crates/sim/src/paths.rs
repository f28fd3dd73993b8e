//! Lexicographic enumeration of bounded port sequences.
//!
//! The unknown-upper-bound algorithm repeatedly walks "all paths of length
//! `r` from the set `{0, ..., a-1}`" (paper Algorithms 7 and 10, and our
//! leashed `EST+`). This module provides the enumerator, which also steps
//! backwards so a finished traversal can be retraced; the walking —
//! forward while ports exist, then backtrack — is the one traversal rule of
//! [`TraversalState`](crate::walk::TraversalState).

use std::fmt;

/// Iterator over all sequences in `{0..alpha}^len`, in lexicographic order.
///
/// # Example
///
/// ```
/// use nochatter_sim::paths::Paths;
///
/// let mut p = Paths::new(2, 2);
/// let mut all = Vec::new();
/// while let Some(path) = p.next_path() {
///     all.push(path.to_vec());
/// }
/// assert_eq!(all, vec![
///     vec![0, 0], vec![0, 1],
///     vec![1, 0], vec![1, 1],
/// ]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Paths {
    alpha: u32,
    current: Vec<u32>,
    started: bool,
    done: bool,
}

impl Paths {
    /// Enumerates `{0..alpha}^len`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha == 0` (there are no symbols to enumerate) unless
    /// `len == 0` too, in which case the single empty path is produced.
    pub fn new(alpha: u32, len: u32) -> Self {
        assert!(
            alpha > 0 || len == 0,
            "alphabet must be non-empty for positive lengths"
        );
        Paths {
            alpha,
            current: vec![0; len as usize],
            started: false,
            done: false,
        }
    }

    /// The next path, or `None` when exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next_path(&mut self) -> Option<&[u32]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.current);
        }
        // Odometer increment, most significant digit first (lexicographic).
        for i in (0..self.current.len()).rev() {
            self.current[i] += 1;
            if self.current[i] < self.alpha {
                return Some(&self.current);
            }
            self.current[i] = 0;
        }
        self.done = true;
        None
    }

    /// Steps the enumeration back: the path before the one
    /// [`Paths::next_path`] last returned, or the last path once the
    /// enumeration is exhausted. Stepping back past the first path returns
    /// `None` and restarts the enumeration, so calling this repeatedly on
    /// an exhausted enumeration yields the lexicographic order reversed.
    ///
    /// # Example
    ///
    /// ```
    /// use nochatter_sim::paths::Paths;
    ///
    /// let mut p = Paths::new(2, 1);
    /// while p.next_path().is_some() {}
    /// assert_eq!(p.prev_path(), Some(&[1][..]));
    /// assert_eq!(p.prev_path(), Some(&[0][..]));
    /// assert_eq!(p.prev_path(), None);
    /// ```
    pub fn prev_path(&mut self) -> Option<&[u32]> {
        if self.done {
            // The forward odometer wrapped to all zeros; the last path is
            // all top digits.
            self.done = false;
            self.current.fill(self.alpha.saturating_sub(1));
            return Some(&self.current);
        }
        if !self.started {
            return None;
        }
        // Odometer decrement, the mirror of `next_path`'s increment.
        for i in (0..self.current.len()).rev() {
            if self.current[i] > 0 {
                self.current[i] -= 1;
                return Some(&self.current);
            }
            self.current[i] = self.alpha - 1;
        }
        self.reset();
        None
    }

    /// The path the enumeration stands on: the one the latest
    /// [`Paths::next_path`] or [`Paths::prev_path`] returned.
    pub(crate) fn current(&self) -> &[u32] {
        &self.current
    }

    /// Restarts the enumeration from the first path.
    pub fn reset(&mut self) {
        self.current.iter_mut().for_each(|d| *d = 0);
        self.started = false;
        self.done = false;
    }

    /// `alpha^len`, or `None` on overflow.
    pub fn count(alpha: u32, len: u32) -> Option<u64> {
        let mut acc: u64 = 1;
        for _ in 0..len {
            acc = acc.checked_mul(u64::from(alpha))?;
        }
        Some(acc)
    }
}

impl fmt::Debug for Paths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Paths")
            .field("alpha", &self.alpha)
            .field("len", &self.current.len())
            .field("current", &self.current)
            .field("done", &self.done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_exactly_alpha_pow_len() {
        for (alpha, len) in [(1u32, 4u32), (2, 3), (3, 2), (4, 1)] {
            let mut p = Paths::new(alpha, len);
            let mut n = 0u64;
            let mut seen = std::collections::HashSet::new();
            while let Some(path) = p.next_path() {
                n += 1;
                assert!(path.iter().all(|&d| d < alpha));
                assert!(seen.insert(path.to_vec()), "duplicate path");
            }
            assert_eq!(Some(n), Paths::count(alpha, len));
        }
    }

    #[test]
    fn lexicographic_order() {
        let mut p = Paths::new(3, 2);
        let mut prev: Option<Vec<u32>> = None;
        while let Some(path) = p.next_path() {
            if let Some(prev) = &prev {
                assert!(prev < &path.to_vec());
            }
            prev = Some(path.to_vec());
        }
    }

    #[test]
    fn zero_length_single_empty_path() {
        let mut p = Paths::new(3, 0);
        assert_eq!(p.next_path(), Some(&[][..]));
        assert_eq!(p.next_path(), None);
        // Even with an empty alphabet.
        let mut p = Paths::new(0, 0);
        assert_eq!(p.next_path(), Some(&[][..]));
        assert_eq!(p.next_path(), None);
    }

    #[test]
    fn prev_path_walks_the_forward_order_reversed() {
        for (alpha, len) in [(1u32, 4u32), (2, 3), (3, 2), (4, 1), (3, 0)] {
            let mut p = Paths::new(alpha, len);
            let mut forward = Vec::new();
            while let Some(path) = p.next_path() {
                forward.push(path.to_vec());
            }
            let mut backward = Vec::new();
            while let Some(path) = p.prev_path() {
                backward.push(path.to_vec());
            }
            forward.reverse();
            assert_eq!(backward, forward, "alpha {alpha}, len {len}");
            // Stepping back past the first path restarts the enumeration.
            assert_eq!(p.next_path(), Some(&vec![0; len as usize][..]));
        }
    }

    #[test]
    fn prev_path_mid_enumeration_returns_the_predecessor() {
        let mut p = Paths::new(3, 2);
        for _ in 0..5 {
            p.next_path();
        }
        assert_eq!(p.prev_path(), Some(&[1, 0][..]));
        assert_eq!(p.prev_path(), Some(&[0, 2][..]));
        assert_eq!(p.next_path(), Some(&[1, 0][..]));
        let mut fresh = Paths::new(3, 2);
        assert_eq!(fresh.prev_path(), None, "nothing before the start");
    }

    #[test]
    fn reset_restarts() {
        let mut p = Paths::new(2, 2);
        while p.next_path().is_some() {}
        p.reset();
        assert_eq!(p.next_path(), Some(&[0, 0][..]));
    }

    #[test]
    fn count_overflow_is_none() {
        assert_eq!(Paths::count(3, 2), Some(9));
        assert_eq!(Paths::count(2, 64), None);
        assert_eq!(Paths::count(1, 1_000), Some(1));
    }

    #[test]
    #[should_panic(expected = "alphabet must be non-empty")]
    fn zero_alpha_positive_len_panics() {
        Paths::new(0, 3);
    }
}
