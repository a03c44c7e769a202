//! Retention policies: which sessions to keep, and pruning the rest.
//!
//! A retention policy is a pure function from the set of existing session
//! numbers to the subset that must survive. Applying one deletes every
//! other session through the ordinary [`delete_session`] protocol, which
//! makes retention the *deletion-pressure generator* for the
//! [vacuum](crate::vacuum) pass: pruning marks chunks dead inside shared
//! containers, and the subsequent vacuum reclaims the space.
//!
//! Policies are expressed in **session numbers**, never wall-clock time —
//! the engine's determinism contract forbids reading the clock, and the
//! workload model already equates one session with one backup period. For
//! the GFS (grandfather-father-son) policy, a session is a "day", seven
//! sessions a "week" and thirty a "month".
//!
//! [`delete_session`]: crate::AaDedupe::delete_session

use std::collections::BTreeSet;

use crate::engine::AaDedupe;
use crate::scheme::BackupError;

/// Which backup sessions a pruning pass must preserve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Keep the newest `n` sessions.
    KeepLast(usize),
    /// Grandfather-father-son: keep the newest session of each of the
    /// last `daily` days, the last `weekly` weeks (7 sessions each) and
    /// the last `monthly` months (30 sessions each), measured backwards
    /// from the newest session.
    Gfs {
        /// Daily generations to keep.
        daily: usize,
        /// Weekly generations to keep.
        weekly: usize,
        /// Monthly generations to keep.
        monthly: usize,
    },
}

impl RetentionPolicy {
    /// The sessions this policy retains out of `sessions`. Pure and
    /// clock-free: depends only on the input set. Unknown future sessions
    /// never appear, and the newest session is always retained (a policy
    /// that kept nothing would delete the backup it was asked to protect;
    /// `KeepLast(0)` and an all-zero GFS still keep the newest).
    pub fn retained(&self, sessions: &[usize]) -> BTreeSet<usize> {
        let ordered: BTreeSet<usize> = sessions.iter().copied().collect();
        let Some(&newest) = ordered.iter().next_back() else {
            return BTreeSet::new();
        };
        let mut keep = BTreeSet::new();
        keep.insert(newest);
        match *self {
            RetentionPolicy::KeepLast(n) => {
                keep.extend(ordered.iter().rev().take(n.max(1)).copied());
            }
            RetentionPolicy::Gfs { daily, weekly, monthly } => {
                // Bucket index 0 is the newest day/week/month, measured
                // in ages back from the newest session; keep the newest
                // surviving session inside each of the first `n` buckets.
                let newest_in_bucket = |span: usize, budget: usize, keep: &mut BTreeSet<usize>| {
                    for bucket in 0..budget {
                        let survivor = ordered.iter().rev().find(|&&s| {
                            let age = newest - s;
                            age >= bucket * span && age < (bucket + 1) * span
                        });
                        if let Some(&s) = survivor {
                            keep.insert(s);
                        }
                    }
                };
                newest_in_bucket(1, daily, &mut keep);
                newest_in_bucket(7, weekly, &mut keep);
                newest_in_bucket(30, monthly, &mut keep);
            }
        }
        keep
    }
}

/// What one retention pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Sessions that existed before the pass.
    pub examined: usize,
    /// Sessions the policy preserved.
    pub retained: usize,
    /// Sessions deleted by the pass.
    pub deleted: usize,
}

impl AaDedupe {
    /// Applies `policy`: deletes every existing session the policy does
    /// not retain, oldest first, through the ordinary crash-consistent
    /// [`delete_session`](Self::delete_session) protocol. Stops at the
    /// first error (already-deleted sessions are not an error — they are
    /// simply absent from the listing).
    pub fn apply_retention(
        &mut self,
        policy: &RetentionPolicy,
    ) -> Result<RetentionReport, BackupError> {
        let sessions = self.list_sessions();
        let keep = policy.retained(&sessions);
        let mut report = RetentionReport {
            examined: sessions.len(),
            retained: keep.len(),
            deleted: 0,
        };
        for s in sessions {
            if keep.contains(&s) {
                continue;
            }
            self.delete_session(s)?;
            report.deleted += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retained(policy: RetentionPolicy, sessions: &[usize]) -> Vec<usize> {
        Vec::from_iter(policy.retained(sessions))
    }

    #[test]
    fn keep_last_takes_newest_n() {
        let all: Vec<usize> = (0..10).collect();
        assert_eq!(retained(RetentionPolicy::KeepLast(3), &all), vec![7, 8, 9]);
        assert_eq!(retained(RetentionPolicy::KeepLast(99), &all), all);
    }

    #[test]
    fn keep_last_zero_still_keeps_newest() {
        assert_eq!(retained(RetentionPolicy::KeepLast(0), &[2, 5, 9]), vec![9]);
    }

    #[test]
    fn empty_input_retains_nothing() {
        assert!(retained(RetentionPolicy::KeepLast(5), &[]).is_empty());
    }

    #[test]
    fn keep_last_ignores_gaps() {
        // Sessions 3 and 6 were already pruned.
        assert_eq!(retained(RetentionPolicy::KeepLast(3), &[0, 1, 2, 4, 5, 7]), vec![4, 5, 7]);
    }

    #[test]
    fn gfs_keeps_newest_per_bucket() {
        // 60 daily sessions, policy 7d/4w/2m.
        let all: Vec<usize> = (0..60).collect();
        let keep =
            retained(RetentionPolicy::Gfs { daily: 7, weekly: 4, monthly: 2 }, &all);
        // Dailies: the last 7 sessions.
        for s in 53..60 {
            assert!(keep.contains(&s), "daily {s} kept");
        }
        // Weeklies: newest of each 7-session window back from 59.
        for w in 0..4 {
            assert!(keep.contains(&(59 - 7 * w)), "weekly bucket {w}");
        }
        // Monthlies: newest of each 30-session window back from 59.
        for m in 0..2 {
            assert!(keep.contains(&(59 - 30 * m)), "monthly bucket {m}");
        }
        // Nothing ancient survives outside the buckets.
        assert!(!keep.contains(&0));
        assert!(keep.len() <= 7 + 4 + 2);
    }

    #[test]
    fn gfs_all_zero_still_keeps_newest() {
        let keep =
            retained(RetentionPolicy::Gfs { daily: 0, weekly: 0, monthly: 0 }, &[1, 2, 3]);
        assert_eq!(keep, vec![3]);
    }

    #[test]
    fn gfs_with_gaps_uses_surviving_sessions() {
        // Weekly bucket 1 (ages 7..14) lost its newest; the next newest
        // surviving session of that bucket is kept instead.
        let sessions = vec![40, 45, 46, 50, 52, 59];
        let keep = retained(
            RetentionPolicy::Gfs { daily: 1, weekly: 2, monthly: 0 },
            &sessions,
        );
        assert!(keep.contains(&59), "newest always kept");
        // Bucket 1 spans ages 7..14 → sessions 45..=52; its newest
        // survivor is 52.
        assert!(keep.contains(&52), "weekly bucket 1 newest survivor");
    }

    #[test]
    fn retained_is_deterministic() {
        let all: Vec<usize> = (0..40).collect();
        let p = RetentionPolicy::Gfs { daily: 3, weekly: 2, monthly: 1 };
        assert_eq!(p.retained(&all), p.retained(&all));
    }
}
