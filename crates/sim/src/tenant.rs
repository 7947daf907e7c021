//! Multi-tenant scheduling state: the tenant table, per-tenant quotas,
//! and live usage accounting layered on [`crate::SimSession`].
//!
//! A [`TenantTable`] is a small static registry — name, fair-share
//! weight, optional resource-unit quota — loaded once at server start
//! (`--tenants FILE`). Every submitted job is owned by exactly one
//! tenant; jobs submitted without a tenant belong to the built-in
//! `default` tenant, so per-tenant accounting always conserves the
//! machine: summed tenant usage equals cluster usage at every event.
//!
//! Quotas bound a tenant's *outstanding* resource units (pending +
//! waiting + running), so an over-quota submission is rejected
//! immediately ([`lumos_core::CoreError::QuotaExceeded`]) instead of
//! queueing forever. Fair-share policies
//! ([`crate::Policy::MaxMinFair`], [`crate::Policy::WeightedFair`])
//! order waiting jobs by the owning tenant's current usage share; the
//! session recomputes that ordering at every scheduling pass because
//! shares move as jobs start and finish.

use lumos_core::{CoreError, Duration};
use serde::{Deserialize, Serialize};

use crate::session::JobState;

/// Index of a tenant in its [`TenantTable`].
pub type TenantId = u16;

/// One tenant's static configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Unique tenant name (no whitespace; matched exactly on submit).
    pub name: String,
    /// Fair-share weight; a tenant with weight 2 is entitled to twice
    /// the machine of a tenant with weight 1 under `WeightedFair`.
    pub weight: f64,
    /// Outstanding resource-unit quota; `None` means unlimited.
    pub quota: Option<u64>,
}

/// A static registry of tenants, in file order, always containing the
/// built-in `default` tenant (appended when the file does not define
/// one) so untenanted submissions stay accounted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTable {
    tenants: Vec<TenantSpec>,
}

impl TenantTable {
    /// Name of the built-in tenant that owns untenanted submissions.
    pub const DEFAULT: &'static str = "default";

    /// Builds a table from explicit specs, appending the built-in
    /// `default` tenant when absent.
    ///
    /// # Errors
    /// Rejects empty / whitespace-containing / duplicate names,
    /// non-finite or non-positive weights, zero quotas, and tables with
    /// more than [`TenantId::MAX`] entries.
    pub fn new(specs: Vec<TenantSpec>) -> Result<Self, String> {
        let mut tenants = specs;
        if !tenants.iter().any(|t| t.name == Self::DEFAULT) {
            tenants.push(TenantSpec {
                name: Self::DEFAULT.to_string(),
                weight: 1.0,
                quota: None,
            });
        }
        let table = Self { tenants };
        table.validate()?;
        Ok(table)
    }

    /// Parses the `--tenants FILE` format: one tenant per line as
    /// `name weight [quota]` (whitespace-separated), with blank lines
    /// and `#` comments ignored. Errors carry a `line N:` prefix.
    ///
    /// # Errors
    /// Propagates per-line syntax errors and the validity rules of
    /// [`TenantTable::new`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut specs = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let name = fields.next().expect("non-empty line has a first field");
            let weight = fields
                .next()
                .ok_or(format!("line {}: missing weight for `{name}`", i + 1))?;
            let weight: f64 = weight
                .parse()
                .map_err(|e| format!("line {}: weight: {e}", i + 1))?;
            // Range-check here, not just in `validate`, so the error
            // names the offending line: `parse` accepts `NaN`, `inf`,
            // and negative zero without complaint.
            if !weight.is_finite() || weight <= 0.0 {
                return Err(format!(
                    "line {}: weight for `{name}` must be finite and positive, got {weight}",
                    i + 1
                ));
            }
            let quota = match fields.next() {
                None | Some("-") => None,
                Some(q) => Some(
                    q.parse()
                        .map_err(|e| format!("line {}: quota: {e}", i + 1))?,
                ),
            };
            if quota == Some(0) {
                return Err(format!(
                    "line {}: quota for `{name}` must be at least 1 (use `-` for unlimited)",
                    i + 1
                ));
            }
            if let Some(extra) = fields.next() {
                return Err(format!(
                    "line {}: unexpected trailing field `{extra}`",
                    i + 1
                ));
            }
            specs.push(TenantSpec {
                name: name.to_string(),
                weight,
                quota,
            });
        }
        Self::new(specs)
    }

    /// Checks the structural validity rules (see [`TenantTable::new`]).
    /// Used both at construction and when adopting a deserialized table.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.len() > usize::from(TenantId::MAX) {
            return Err(format!("too many tenants: {}", self.tenants.len()));
        }
        if !self.tenants.iter().any(|t| t.name == Self::DEFAULT) {
            return Err(format!("missing built-in `{}` tenant", Self::DEFAULT));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() || t.name.chars().any(char::is_whitespace) {
                return Err(format!(
                    "tenant {i}: name must be non-empty without whitespace"
                ));
            }
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(format!(
                    "tenant `{}`: weight must be finite and positive",
                    t.name
                ));
            }
            if t.quota == Some(0) {
                return Err(format!("tenant `{}`: quota must be at least 1", t.name));
            }
            if self.tenants[..i].iter().any(|u| u.name == t.name) {
                return Err(format!("duplicate tenant `{}`", t.name));
            }
        }
        Ok(())
    }

    /// Resolves a tenant name to its id.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<TenantId> {
        self.tenants
            .iter()
            .position(|t| t.name == name)
            .map(|i| i as TenantId)
    }

    /// Id of the built-in `default` tenant.
    #[must_use]
    pub(crate) fn default_tenant(&self) -> TenantId {
        self.lookup(Self::DEFAULT)
            .expect("validated tables contain the default tenant")
    }

    /// Number of tenants (including the built-in default).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the table has no tenants (never true once validated).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The spec for tenant `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    #[must_use]
    pub fn get(&self, id: TenantId) -> &TenantSpec {
        &self.tenants[usize::from(id)]
    }

    /// Iterates the specs in table order.
    pub fn iter(&self) -> std::slice::Iter<'_, TenantSpec> {
        self.tenants.iter()
    }
}

/// Per-tenant lifecycle counters maintained by the session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantCounts {
    /// Jobs ever accepted for this tenant.
    pub submitted: u64,
    /// Jobs whose submit time is still in the future.
    pub pending: u64,
    /// Jobs sitting in waiting queues.
    pub waiting: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs that completed.
    pub finished: u64,
    /// Jobs cancelled before starting.
    pub cancelled: u64,
}

/// Point-in-time usage report for one tenant (see
/// [`crate::SimSession::tenant_usage`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Tenant name.
    pub name: String,
    /// Configured fair-share weight.
    pub weight: f64,
    /// Configured outstanding-units quota, if any.
    pub quota: Option<u64>,
    /// Lifecycle counters.
    pub counts: TenantCounts,
    /// Resource units outstanding (pending + waiting + running) —
    /// what quotas bound.
    pub outstanding_units: u64,
    /// Resource units currently allocated to running jobs.
    pub used_units: u64,
    /// Cumulative delivered service in unit-seconds, committed when a
    /// job starts (`procs × runtime`).
    pub served_unit_seconds: u64,
    /// Instantaneous usage share (`used_units / cluster capacity`).
    pub share: f64,
}

/// Live per-tenant accounting inside a session. Everything here is
/// derivable from the job table plus per-job tenant ownership, and is
/// rebuilt from those facts on [`crate::SimSession::restore`].
#[derive(Debug)]
pub(crate) struct TenantState {
    pub table: TenantTable,
    /// Owning tenant of each job, parallel to the session's job table.
    pub tenant_of: Vec<TenantId>,
    /// Outstanding resource units per tenant (quota denominator).
    pub outstanding: Vec<u64>,
    /// Running resource units per tenant (fair-share numerator).
    pub running_units: Vec<u64>,
    /// Cumulative delivered unit-seconds per tenant.
    pub served: Vec<u64>,
    /// Lifecycle counters per tenant.
    pub counts: Vec<TenantCounts>,
}

impl TenantState {
    pub fn new(table: TenantTable) -> Self {
        let n = table.len();
        Self {
            table,
            tenant_of: Vec::new(),
            outstanding: vec![0; n],
            running_units: vec![0; n],
            served: vec![0; n],
            counts: vec![TenantCounts::default(); n],
        }
    }

    /// Rejects a submission that would push `tenant` past its quota.
    pub(crate) fn quota_check(&self, tenant: TenantId, units: u64) -> Result<(), CoreError> {
        let t = usize::from(tenant);
        let in_use = self.outstanding[t];
        if let Some(quota) = self.table.get(tenant).quota {
            if in_use + units > quota {
                return Err(CoreError::QuotaExceeded {
                    tenant: self.table.get(tenant).name.clone(),
                    requested: units,
                    in_use,
                    quota,
                });
            }
        }
        Ok(())
    }

    pub(crate) fn on_submit(&mut self, tenant: TenantId, units: u64) {
        let t = usize::from(tenant);
        self.tenant_of.push(tenant);
        self.outstanding[t] += units;
        self.counts[t].submitted += 1;
        self.counts[t].pending += 1;
    }

    pub(crate) fn on_arrive(&mut self, idx: usize) {
        let t = usize::from(self.tenant_of[idx]);
        self.counts[t].pending -= 1;
        self.counts[t].waiting += 1;
    }

    pub(crate) fn on_start(&mut self, idx: usize, units: u64, runtime: Duration) {
        let t = usize::from(self.tenant_of[idx]);
        self.counts[t].waiting -= 1;
        self.counts[t].running += 1;
        self.running_units[t] += units;
        self.served[t] += units * runtime as u64;
    }

    pub(crate) fn on_finish(&mut self, idx: usize, units: u64) {
        let t = usize::from(self.tenant_of[idx]);
        self.counts[t].running -= 1;
        self.counts[t].finished += 1;
        self.running_units[t] -= units;
        self.outstanding[t] -= units;
    }

    pub(crate) fn on_cancel(&mut self, idx: usize, units: u64, was: JobState) {
        let t = usize::from(self.tenant_of[idx]);
        match was {
            JobState::Pending => self.counts[t].pending -= 1,
            JobState::Waiting => self.counts[t].waiting -= 1,
            _ => unreachable!("only pending/waiting jobs cancel"),
        }
        self.counts[t].cancelled += 1;
        self.outstanding[t] -= units;
    }

    /// Per-tenant usage shares for fair-share ordering: running units
    /// over cluster capacity, divided by the tenant's weight when
    /// `weighted`.
    pub fn shares(&self, capacity: u64, weighted: bool) -> Vec<f64> {
        let cap = capacity.max(1) as f64;
        self.running_units
            .iter()
            .zip(self.table.iter())
            .map(|(&u, spec)| {
                let share = u as f64 / cap;
                if weighted {
                    share / spec.weight
                } else {
                    share
                }
            })
            .collect()
    }

    /// Rebuilds accounting from saved facts (used by session restore):
    /// each row goes through the live hooks in lifecycle order up to its
    /// state, a cancelled row through submit and cancel-from-pending.
    pub fn rebuild(
        table: TenantTable,
        tenant_of: &[TenantId],
        states: &[JobState],
        procs_eff: &[u64],
        runtimes: &[Duration],
    ) -> Result<Self, String> {
        table.validate()?;
        if tenant_of.len() != states.len() {
            return Err(format!(
                "tenant_of covers {} jobs, the table has {}",
                tenant_of.len(),
                states.len()
            ));
        }
        let mut s = Self::new(table);
        for (idx, (&tenant, &state)) in tenant_of.iter().zip(states).enumerate() {
            let t = usize::from(tenant);
            if t >= s.table.len() {
                return Err(format!("job {idx} names tenant #{t} of {}", s.table.len()));
            }
            let units = procs_eff[idx];
            s.on_submit(tenant, units);
            match state {
                JobState::Pending => {}
                JobState::Cancelled => s.on_cancel(idx, units, JobState::Pending),
                JobState::Waiting | JobState::Running | JobState::Finished => {
                    s.on_arrive(idx);
                    if state != JobState::Waiting {
                        s.on_start(idx, units, runtimes[idx]);
                    }
                    if state == JobState::Finished {
                        s.on_finish(idx, units);
                    }
                }
            }
        }
        Ok(s)
    }

    /// Point-in-time usage report, in table order.
    pub fn usage(&self, capacity: u64) -> Vec<TenantUsage> {
        let cap = capacity.max(1) as f64;
        self.table
            .iter()
            .enumerate()
            .map(|(t, spec)| TenantUsage {
                name: spec.name.clone(),
                weight: spec.weight,
                quota: spec.quota,
                counts: self.counts[t],
                outstanding_units: self.outstanding[t],
                used_units: self.running_units[t],
                served_unit_seconds: self.served[t],
                share: self.running_units[t] as f64 / cap,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_comments_quotas_and_appends_default() {
        let table = TenantTable::parse(
            "# staff tenants\nalice 2.0 1000\nbob 1.0 -\n\ncarol 0.5 # trailing comment\n",
        )
        .unwrap();
        assert_eq!(table.len(), 4, "default appended");
        assert_eq!(table.lookup("alice"), Some(0));
        assert_eq!(table.get(0).quota, Some(1000));
        assert_eq!(table.get(1).quota, None);
        assert_eq!(table.get(2).weight, 0.5);
        assert_eq!(table.default_tenant(), 3);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = TenantTable::parse("alice 2.0\nbob\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = TenantTable::parse("alice 2.0 10 extra\n").unwrap_err();
        assert!(err.contains("line 1:") && err.contains("extra"), "{err}");
        let err = TenantTable::parse("alice nope\n").unwrap_err();
        assert!(err.starts_with("line 1: weight:"), "{err}");
    }

    #[test]
    fn validation_rejects_bad_tables() {
        assert!(TenantTable::parse("alice 0\n").is_err(), "zero weight");
        assert!(TenantTable::parse("alice -1\n").is_err(), "negative weight");
        assert!(TenantTable::parse("alice 1 0\n").is_err(), "zero quota");
        assert!(
            TenantTable::parse("alice 1\nalice 2\n").is_err(),
            "duplicate name"
        );
    }

    #[test]
    fn parse_rejects_bad_weights_and_quotas_with_line_numbers() {
        // `f64::parse` happily accepts all of these; the table must not.
        for bad in ["NaN", "inf", "-inf", "-1", "0", "-0.0"] {
            let err = TenantTable::parse(&format!("ok 1.0\nbob {bad}\n")).unwrap_err();
            assert!(
                err.starts_with("line 2:") && err.contains("bob"),
                "weight {bad}: {err}"
            );
        }
        let err = TenantTable::parse("ok 1.0\nok2 1.0 -\nbob 1.0 0\n").unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("bob"),
            "zero quota: {err}"
        );
    }

    #[test]
    fn explicit_default_is_not_duplicated() {
        let table = TenantTable::parse("default 4.0 50\nalice 1.0\n").unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.default_tenant(), 0);
        assert_eq!(table.get(0).weight, 4.0);
        assert_eq!(table.get(0).quota, Some(50));
    }

    #[test]
    fn table_survives_json() {
        let table = TenantTable::parse("alice 2.0 1000\nbob 1.0\n").unwrap();
        let json = serde_json::to_string(&table).unwrap();
        let back: TenantTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn shares_divide_by_weight_only_when_weighted() {
        let table = TenantTable::parse("heavy 4.0\nlight 1.0\n").unwrap();
        let mut st = TenantState::new(table);
        st.on_submit(0, 40);
        st.on_submit(1, 10);
        st.on_arrive(0);
        st.on_arrive(1);
        st.on_start(0, 40, 100);
        st.on_start(1, 10, 100);
        let plain = st.shares(100, false);
        assert_eq!(plain[0], 0.40);
        assert_eq!(plain[1], 0.10);
        let weighted = st.shares(100, true);
        assert_eq!(weighted[0], 0.10);
        assert_eq!(weighted[1], 0.10);
    }

    #[test]
    fn quota_bounds_outstanding_units() {
        let table = TenantTable::parse("capped 1.0 50\n").unwrap();
        let mut st = TenantState::new(table);
        st.quota_check(0, 50).unwrap();
        st.on_submit(0, 30);
        st.quota_check(0, 20).unwrap();
        let err = st.quota_check(0, 21).unwrap_err();
        assert!(matches!(
            err,
            CoreError::QuotaExceeded {
                requested: 21,
                in_use: 30,
                quota: 50,
                ..
            }
        ));
        // Finishing releases quota; cancelling does too.
        st.on_arrive(0);
        st.on_start(0, 30, 10);
        st.on_finish(0, 30);
        st.quota_check(0, 50).unwrap();
    }
}
