//! The content-addressed result cache: exact hits by job fingerprint,
//! near hits (warm-start donors) by family fingerprint plus coefficient
//! distance.
//!
//! Keys come from [`cafqa_core::fingerprint`]: the **exact** key hashes
//! the canonical sorted mask-form term set *with* coefficient bits,
//! penalties, ansatz structure, seeds and the determinism-relevant
//! [`CafqaOptions`](cafqa_core::CafqaOptions) fields, so an exact match
//! means a bit-identical result by the workspace determinism contracts.
//! The **family** key drops only the Hamiltonian coefficients: jobs in
//! one family differ in coefficients alone (e.g. neighbouring bond
//! lengths), which makes the cached incumbent genome a sound warm-start
//! seed for a new family member.
//!
//! A record is findable under *two* exact keys — the fingerprint of the
//! spec as submitted and the fingerprint of the spec the search
//! actually ran (submitted seeds plus an injected warm-start
//! incumbent). Resubmitting a spec therefore hits the cache regardless
//! of whether its first run was warm-started, and before any donor
//! lookup can pick a different (e.g. the job's own) incumbent.
//!
//! Eviction is bounded FIFO in completion order — deterministic, so a
//! replayed submission sequence sees identical hits and misses.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cafqa_core::fingerprint::coefficient_distance;
use cafqa_core::CafqaResult;

/// One cached completion.
#[derive(Debug)]
pub(crate) struct CacheRecord {
    /// Every exact fingerprint this record answers for (as-submitted
    /// and effective; equal for never-warm-started jobs).
    pub keys: Vec<u64>,
    /// The family (structure-only) fingerprint.
    pub family: u64,
    /// Canonical coefficient vector of the Hamiltonian (the near-hit
    /// distance embedding).
    pub coefficients: Vec<f64>,
    /// The best configuration found — the warm-start genome donated to
    /// near hits.
    pub incumbent: Vec<usize>,
    /// The full result returned on exact hits.
    pub result: Arc<CafqaResult>,
    /// The effective seed list the cached search ran with.
    pub seeds_used: Vec<Vec<usize>>,
}

/// A warm-start donor picked from the cache.
#[derive(Debug, Clone)]
pub(crate) struct Donor {
    /// The donated incumbent configuration.
    pub incumbent: Vec<usize>,
    /// L2 coefficient distance between donor and recipient.
    pub distance: f64,
}

/// Bounded content-addressed cache; see the module notes for the key
/// scheme and determinism properties.
#[derive(Debug)]
pub(crate) struct ResultCache {
    capacity: usize,
    /// Record storage keyed by insertion id.
    records: HashMap<u64, CacheRecord>,
    /// exact fingerprint → record id.
    by_key: HashMap<u64, u64>,
    /// family fingerprint → record ids in insertion order (the
    /// deterministic donor scan order).
    by_family: HashMap<u64, Vec<u64>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
    next_id: u64,
    /// Lifetime counters: (exact lookups, exact hits).
    pub lookups: u64,
    /// Exact hits served.
    pub hits: u64,
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            records: HashMap::new(),
            by_key: HashMap::new(),
            by_family: HashMap::new(),
            order: VecDeque::new(),
            next_id: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// Number of cached completions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Exact lookup (counts toward the hit-rate statistics).
    pub fn get(&mut self, fingerprint: u64) -> Option<&CacheRecord> {
        self.lookups += 1;
        let id = *self.by_key.get(&fingerprint)?;
        self.hits += 1;
        self.records.get(&id)
    }

    /// The nearest same-family donor by coefficient distance (ties keep
    /// the earliest-inserted record, so donor choice is deterministic
    /// in completion order). `exclude` skips records carrying that
    /// exact key — never donate a job to itself.
    pub fn nearest_in_family(
        &self,
        family: u64,
        coefficients: &[f64],
        exclude: u64,
    ) -> Option<Donor> {
        let ids = self.by_family.get(&family)?;
        let mut best: Option<Donor> = None;
        for id in ids {
            let record = &self.records[id];
            if record.keys.contains(&exclude) {
                continue;
            }
            let Some(distance) = coefficient_distance(&record.coefficients, coefficients) else {
                continue;
            };
            if best.as_ref().map_or(true, |b| distance < b.distance) {
                best = Some(Donor { incumbent: record.incumbent.clone(), distance });
            }
        }
        best
    }

    /// Inserts a completion, evicting the oldest record when over
    /// capacity. Keys already present are re-pointed at the new record
    /// (identical content by the determinism contract, so this only
    /// refreshes recency metadata).
    pub fn insert(&mut self, record: CacheRecord) {
        let id = self.next_id;
        self.next_id += 1;
        for &key in &record.keys {
            self.by_key.insert(key, id);
        }
        self.by_family.entry(record.family).or_default().push(id);
        self.records.insert(id, record);
        self.order.push_back(id);
        while self.records.len() > self.capacity {
            let Some(old) = self.order.pop_front() else { break };
            let Some(record) = self.records.remove(&old) else { continue };
            for key in &record.keys {
                if self.by_key.get(key) == Some(&old) {
                    self.by_key.remove(key);
                }
            }
            if let Some(ids) = self.by_family.get_mut(&record.family) {
                ids.retain(|&i| i != old);
                if ids.is_empty() {
                    self.by_family.remove(&record.family);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_core::SearchPoint;

    fn result(tag: f64) -> Arc<CafqaResult> {
        Arc::new(CafqaResult {
            best_config: vec![0, 1],
            energy: tag,
            penalized: tag,
            trace: vec![SearchPoint { energy: tag, penalized: tag, best_so_far: tag }],
            iterations_to_best: 1,
            evaluations: 1,
            polish_evaluations: 0,
            bo_seconds: 0.0,
            polish_seconds: 0.0,
            polish_seek_stats: (0, 0),
        })
    }

    fn record(keys: Vec<u64>, family: u64, coefficients: Vec<f64>, tag: f64) -> CacheRecord {
        CacheRecord {
            keys,
            family,
            coefficients,
            incumbent: vec![tag as usize, 0],
            result: result(tag),
            seeds_used: vec![],
        }
    }

    #[test]
    fn exact_hits_answer_under_every_key_and_count() {
        let mut cache = ResultCache::new(8);
        cache.insert(record(vec![10, 11], 99, vec![1.0], 1.0));
        assert!(cache.get(10).is_some(), "as-submitted key");
        assert!(cache.get(11).is_some(), "effective key");
        assert!(cache.get(12).is_none());
        assert_eq!((cache.lookups, cache.hits), (3, 2));
    }

    #[test]
    fn nearest_donor_is_deterministic_and_never_self() {
        let mut cache = ResultCache::new(8);
        cache.insert(record(vec![1], 7, vec![1.0, 0.0], 1.0));
        cache.insert(record(vec![2], 7, vec![1.1, 0.0], 2.0));
        cache.insert(record(vec![3], 8, vec![1.05, 0.0], 3.0)); // other family
        let donor = cache.nearest_in_family(7, &[1.08, 0.0], 0).unwrap();
        assert_eq!(donor.incumbent, vec![2, 0], "record 2 is closer");
        // Excluding the nearest record falls back to the next one.
        let donor = cache.nearest_in_family(7, &[1.08, 0.0], 2).unwrap();
        assert_eq!(donor.incumbent, vec![1, 0]);
        // Exact distance ties keep the earliest-inserted record.
        cache.insert(record(vec![4], 11, vec![0.0], 4.0));
        cache.insert(record(vec![5], 11, vec![2.0], 5.0));
        let donor = cache.nearest_in_family(11, &[1.0], 0).unwrap();
        assert_eq!(donor.incumbent, vec![4, 0], "strict < keeps the first of a tie");
        // Unknown family, or a family whose members all mismatch in
        // vector length: no donor.
        assert!(cache.nearest_in_family(42, &[1.0], 0).is_none());
        assert!(cache.nearest_in_family(8, &[1.0, 2.0, 3.0], 0).is_none());
    }

    #[test]
    fn eviction_is_fifo_and_scrubs_every_index() {
        let mut cache = ResultCache::new(2);
        cache.insert(record(vec![1, 100], 7, vec![1.0], 1.0));
        cache.insert(record(vec![2], 7, vec![2.0], 2.0));
        cache.insert(record(vec![3], 9, vec![3.0], 3.0)); // evicts record 1
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none());
        assert!(cache.get(100).is_none(), "alias keys evict with the record");
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
        let donor = cache.nearest_in_family(7, &[1.0], 0).unwrap();
        assert_eq!(donor.incumbent, vec![2, 0], "evicted records leave the family index");
    }
}
