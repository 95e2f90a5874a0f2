//! Decisions recorded for known `(workload, seed)` pairs. A run whose seed
//! has an entry must reproduce it day for day; `record_reference.sh`
//! rewrites the file when the program's decisions change on purpose.

use serde::{Deserialize, Serialize};

/// Hex characters kept per day digest.
const SHORT: usize = 8;

#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Reference {
    pub entries: Vec<Entry>,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Entry {
    pub workload: String,
    pub seed: u64,
    /// Short digest of every day, warm-up days first, concatenated.
    pub days: String,
    /// Short digest of the bandits' logged outcomes.
    pub history: String,
}

impl Entry {
    #[must_use]
    pub fn new(workload: &str, seed: u64, days: &[u64], history: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            days: short_all(days).concat(),
            history: short(history),
        }
    }

    #[must_use]
    pub fn days(&self) -> Vec<String> {
        self.days
            .as_bytes()
            .chunks(SHORT)
            .map(|c| String::from_utf8_lossy(c).into_owned())
            .collect()
    }
}

#[must_use]
pub fn short(digest: u64) -> String {
    format!("{:0width$x}", digest & 0xffff_ffff, width = SHORT)
}

#[must_use]
pub fn short_all(digests: &[u64]) -> Vec<String> {
    digests.iter().map(|&d| short(d)).collect()
}

impl Reference {
    /// The reference compiled into the benchmark.
    ///
    /// # Errors
    ///
    /// When the embedded file does not parse.
    pub fn embedded() -> Result<Self, String> {
        serde_json::from_str(include_str!("../reference.json"))
            .map_err(|e| format!("reference.json: {e}"))
    }

    #[must_use]
    pub fn lookup(&self, workload: &str, seed: u64) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.workload == workload && e.seed == seed)
    }
}
