//! Behavioural user models.
//!
//! The paper's §V observations are *per-user* regularities: users resubmit a
//! small set of application configurations (Fig. 8), adapt request size and
//! runtime to queue pressure (Figs. 9–10), and show status-dependent runtime
//! signatures (Fig. 11). `UserPool` encodes those regularities explicitly.

use lumos_core::UserId;
use lumos_stats::Rng;
use rayon::prelude::*;

use crate::profile::SystemProfile;

/// One application configuration a user repeatedly submits:
/// a fixed resource request and a characteristic runtime.
///
/// Failure behaviour is also a property of the *application*, not the
/// submission: a buggy config crashes at the same point every time it is
/// rerun. `fail_factor` / `kill_factor` pin each template's characteristic
/// early-failure point and kill stretch, which keeps failed reruns inside
/// the same Fig. 8 resource-configuration group and gives the per-user
/// violins of Fig. 11 their separated modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Template {
    /// Resource units the application always requests.
    pub procs: u64,
    /// Characteristic runtime in seconds (per-submission jitter is applied
    /// on top, small enough to stay within the Fig. 8 10 % grouping rule).
    pub base_runtime: f64,
    /// Fraction of the base runtime at which this application fails when it
    /// fails (drawn once from the profile's `fail_early` range).
    pub fail_factor: f64,
    /// Runtime multiplier when this application gets killed mid-run (drawn
    /// once from the profile's `kill_stretch` range).
    pub kill_factor: f64,
    /// Walltime over-estimation factor this application is always submitted
    /// with (users copy job scripts, so the same app gets the same request).
    pub walltime_factor: f64,
}

/// A user: an activity weight, an optional virtual-cluster binding, and a
/// Zipf-popular menu of application templates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UserModel {
    /// Trace-unique id.
    pub id: UserId,
    /// Relative submission weight (Zipf over the pool).
    pub weight: f64,
    /// Virtual cluster the user's jobs run in (`None` on unpartitioned
    /// systems).
    pub virtual_cluster: Option<u16>,
    templates: Vec<Template>,
    /// Cumulative template weights for O(log n) selection.
    cum_weights: Vec<f64>,
    /// Index of the smallest-`procs` template (the congestion fallback).
    smallest: usize,
    /// Index of the shortest-runtime template (the DL congestion fallback).
    shortest: usize,
}

impl UserModel {
    /// Builds a user with `n` templates drawn from the profile's size and
    /// runtime distributions, popularity-ranked by `template_zipf`.
    fn build(
        id: UserId,
        weight: f64,
        vc: Option<u16>,
        profile: &SystemProfile,
        rng: &mut Rng,
    ) -> Self {
        let (lo, hi) = profile.templates_per_user;
        let n = lo + rng.index(hi - lo + 1);
        let mut templates = Vec::with_capacity(n);
        for _ in 0..n {
            let procs = profile.sample_procs(rng);
            let base_runtime = profile.sample_base_runtime(rng, procs);
            let (flo, fhi) = profile.fail_early;
            let (klo, khi) = profile.kill_stretch;
            let walltime_factor = match profile.walltime {
                crate::profile::WalltimePolicy::Estimated { lo, hi, .. } => {
                    lo + (hi - lo) * rng.next_f64()
                }
                crate::profile::WalltimePolicy::None => 1.5,
            };
            templates.push(Template {
                procs,
                base_runtime,
                fail_factor: flo + (fhi - flo) * rng.next_f64(),
                kill_factor: klo + (khi - klo) * rng.next_f64(),
                walltime_factor,
            });
        }
        let mut cum_weights = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(profile.template_zipf);
            cum_weights.push(acc);
        }
        // Smallest = fewest units, ties broken by shortest runtime: the
        // configuration a user reaches for when the queue is congested.
        let smallest = templates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (a.procs, a.base_runtime)
                    .partial_cmp(&(b.procs, b.base_runtime))
                    .expect("finite runtimes")
            })
            .map(|(i, _)| i)
            .expect("at least one template");
        let shortest = templates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.base_runtime
                    .partial_cmp(&b.base_runtime)
                    .expect("finite runtimes")
            })
            .map(|(i, _)| i)
            .expect("at least one template");
        Self {
            id,
            weight,
            virtual_cluster: vc,
            templates,
            cum_weights,
            smallest,
            shortest,
        }
    }

    /// Picks a template by Zipf popularity.
    #[must_use]
    pub(crate) fn pick_template(&self, rng: &mut Rng) -> &Template {
        let total = *self.cum_weights.last().expect("non-empty");
        let x = rng.next_f64() * total;
        let idx = match self
            .cum_weights
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.templates.len() - 1),
        };
        &self.templates[idx]
    }

    /// The user's smallest template — what they fall back to when the queue
    /// is congested (§V.B).
    #[must_use]
    pub(crate) fn smallest_template(&self) -> &Template {
        &self.templates[self.smallest]
    }

    /// The user's shortest template — the DL fallback under congestion
    /// (Fig. 10: DL users submit shorter jobs when the system is busy).
    /// Reusing a *real* template (rather than scaling runtimes) keeps the
    /// Fig. 8 resource-configuration groups intact.
    #[must_use]
    pub(crate) fn shortest_template(&self) -> &Template {
        &self.templates[self.shortest]
    }

    /// Expected per-job demand (core-seconds) under this user's template
    /// popularity: `Σ P(template) × weight(template)` where `weight` is the
    /// caller-supplied demand function.
    #[must_use]
    pub(crate) fn expected_demand(&self, demand: impl Fn(&Template) -> f64) -> f64 {
        let total = *self.cum_weights.last().expect("non-empty");
        let mut prev = 0.0;
        let mut acc = 0.0;
        for (t, &cw) in self.templates.iter().zip(&self.cum_weights) {
            acc += (cw - prev) / total * demand(t);
            prev = cw;
        }
        acc
    }
}

/// The full user population of one synthetic system.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UserPool {
    users: Vec<UserModel>,
    cum_weights: Vec<f64>,
}

impl UserPool {
    /// Builds `profile.n_users` users. On partitioned systems users are
    /// assigned to virtual clusters in contiguous blocks, so the heaviest
    /// users (Zipf rank 0, 1, …) land together in the first cluster. That
    /// concentration is what produces Philly's pathology — jobs queueing in
    /// one overloaded virtual cluster while GPUs idle in others (§III.B).
    #[must_use]
    pub fn build(profile: &SystemProfile, rng: &mut Rng) -> Self {
        let n = profile.n_users.max(1);
        let vcs = profile.spec.virtual_clusters;
        let block = n.div_ceil(usize::from(vcs.max(1)));
        // Each user draws from an index-keyed fork of the pool rng, so users
        // can be built in parallel on the shared thread pool (the same pool
        // that runs the per-system sweep) while staying byte-identical to a
        // sequential build at any thread count.
        let rng = &*rng;
        let users: Vec<UserModel> = (0..n)
            .into_par_iter()
            .map(|i| {
                let weight = 1.0 / ((i + 1) as f64).powf(profile.user_zipf);
                let vc = (vcs > 1).then(|| ((i / block) as u16).min(vcs - 1));
                let mut child = rng.fork(i as u64);
                UserModel::build(i as UserId, weight, vc, profile, &mut child)
            })
            .collect();
        let mut cum_weights = Vec::with_capacity(n);
        let mut acc = 0.0;
        for u in &users {
            acc += u.weight;
            cum_weights.push(acc);
        }
        Self { users, cum_weights }
    }

    /// Expected per-job demand (core-seconds) across the whole pool: the
    /// user-activity-weighted mean of each user's template-weighted demand.
    /// This is what the arrival-rate calibration must use — with
    /// heavy-tailed size/runtime distributions the realised pool mean is
    /// nowhere near the distribution mean, so calibrating against the
    /// distributions directly would miss the utilization target by an order
    /// of magnitude.
    #[must_use]
    pub(crate) fn expected_demand(&self, demand: impl Fn(&Template) -> f64 + Copy) -> f64 {
        let total = *self.cum_weights.last().expect("non-empty pool");
        let mut prev = 0.0;
        let mut acc = 0.0;
        for (u, &cw) in self.users.iter().zip(&self.cum_weights) {
            acc += (cw - prev) / total * u.expected_demand(demand);
            prev = cw;
        }
        acc
    }

    /// Picks a submitting user by Zipf activity weight.
    #[must_use]
    pub(crate) fn pick(&self, rng: &mut Rng) -> &UserModel {
        let total = *self.cum_weights.last().expect("non-empty pool");
        let x = rng.next_f64() * total;
        let idx = match self
            .cum_weights
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.users.len() - 1),
        };
        &self.users[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;
    use lumos_core::SystemId;

    fn pool(id: SystemId, seed: u64) -> UserPool {
        let profile = systems::profile_for(id);
        let mut rng = Rng::new(seed);
        UserPool::build(&profile, &mut rng)
    }

    #[test]
    fn pool_size_matches_profile() {
        let p = pool(SystemId::Theta, 1);
        assert_eq!(p.users.len(), systems::profile_for(SystemId::Theta).n_users);
    }

    #[test]
    fn heavy_users_are_picked_more_often() {
        let p = pool(SystemId::Mira, 2);
        let mut rng = Rng::new(3);
        let mut count0 = 0;
        let mut count_last = 0;
        for _ in 0..50_000 {
            let u = p.pick(&mut rng);
            if u.id == 0 {
                count0 += 1;
            }
            if u.id as usize == p.users.len() - 1 {
                count_last += 1;
            }
        }
        assert!(count0 > 5 * count_last.max(1), "{count0} vs {count_last}");
    }

    #[test]
    fn template_popularity_is_skewed() {
        let p = pool(SystemId::BlueWaters, 4);
        let user = &p.users[0];
        let mut rng = Rng::new(5);
        let mut first = 0;
        let n = 20_000;
        for _ in 0..n {
            if std::ptr::eq(user.pick_template(&mut rng), &user.templates[0]) {
                first += 1;
            }
        }
        // The favourite template must dominate.
        assert!(
            first as f64 / n as f64 > 1.5 / user.templates.len() as f64,
            "favourite share {}",
            first as f64 / n as f64
        );
    }

    #[test]
    fn philly_users_span_all_virtual_clusters() {
        let p = pool(SystemId::Philly, 6);
        let mut vcs: Vec<u16> = p
            .users
            .iter()
            .map(|u| u.virtual_cluster.expect("Philly users are VC-bound"))
            .collect();
        vcs.sort_unstable();
        vcs.dedup();
        assert_eq!(vcs.len(), 14);
    }

    #[test]
    fn unpartitioned_systems_have_no_vc() {
        let p = pool(SystemId::Helios, 7);
        assert!(p.users.iter().all(|u| u.virtual_cluster.is_none()));
    }

    #[test]
    fn smallest_template_is_minimal() {
        let p = pool(SystemId::Philly, 8);
        for u in &p.users {
            let min = u.templates.iter().map(|t| t.procs).min().unwrap();
            assert_eq!(u.smallest_template().procs, min);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = pool(SystemId::Helios, 42);
        let b = pool(SystemId::Helios, 42);
        assert_eq!(a, b);
    }
}
