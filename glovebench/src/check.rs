//! What a release published, measured from the published datasets
//! themselves: coverage of the input, utility and the published users.

use glove_core::accuracy::{position_accuracy_m, time_accuracy_min};
use glove_core::{Dataset, Sample, UserId};
use std::collections::HashMap;

/// Everything one release (one dataset, or every epoch of a stream)
/// published, folded per user.
#[derive(Debug, Default)]
pub struct Published {
    by_user: HashMap<UserId, Vec<Sample>>,
    pos_sum: f64,
    time_sum: f64,
    user_samples: u64,
}

impl Published {
    /// Folds in one published dataset.
    pub fn add(&mut self, dataset: &Dataset) {
        for fp in &dataset.fingerprints {
            for &user in fp.users() {
                self.by_user
                    .entry(user)
                    .or_default()
                    .extend_from_slice(fp.samples());
            }
        }
        let pos = position_accuracy_m(dataset);
        self.user_samples += pos.len() as u64;
        self.pos_sum += pos.iter().sum::<f64>();
        self.time_sum += time_accuracy_min(dataset).iter().sum::<f64>();
    }

    /// Input user-samples that no published sample of the same user covers.
    pub fn uncovered(&self, input: impl Iterator<Item = (UserId, Sample)>) -> u64 {
        let empty = Vec::new();
        input
            .filter(|(user, s)| {
                !self
                    .by_user
                    .get(user)
                    .unwrap_or(&empty)
                    .iter()
                    .any(|p| p.covers(s))
            })
            .count() as u64
    }

    /// Whether `user` appears in any published fingerprint.
    pub fn has_user(&self, user: UserId) -> bool {
        self.by_user.contains_key(&user)
    }

    /// Distinct users published.
    pub fn users(&self) -> usize {
        self.by_user.len()
    }

    /// Mean position extent per published user-sample, meters.
    pub fn pos_accuracy_m(&self) -> f64 {
        self.pos_sum / self.user_samples.max(1) as f64
    }

    /// Mean time extent per published user-sample, minutes.
    pub fn time_accuracy_min(&self) -> f64 {
        self.time_sum / self.user_samples.max(1) as f64
    }
}

/// Every (user, sample) of an input dataset.
pub fn user_samples(dataset: &Dataset) -> impl Iterator<Item = (UserId, Sample)> + '_ {
    dataset.fingerprints.iter().flat_map(|fp| {
        fp.users()
            .iter()
            .flat_map(move |&u| fp.samples().iter().map(move |&s| (u, s)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::Fingerprint;

    #[test]
    fn coverage_and_accuracy_of_a_merged_release() {
        let input = Dataset::new(
            "in",
            vec![
                Fingerprint::from_points(0, &[(0, 0, 10), (5_000, 0, 20)]).unwrap(),
                Fingerprint::from_points(1, &[(100, 0, 11)]).unwrap(),
            ],
        )
        .unwrap();
        // One group hiding both users, with one generalized box; user 0's
        // second sample is not covered (suppressed).
        let merged = Sample::new(0, 0, 200, 100, 10, 2).unwrap();
        let out = Dataset::new(
            "out",
            vec![Fingerprint::with_users(vec![0, 1], vec![merged]).unwrap()],
        )
        .unwrap();
        let mut p = Published::default();
        p.add(&out);
        assert_eq!(p.uncovered(user_samples(&input)), 1);
        assert_eq!(p.users(), 2);
        assert_eq!(p.pos_accuracy_m(), 150.0);
        assert_eq!(p.time_accuracy_min(), 2.0);
    }
}
