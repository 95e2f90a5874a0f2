//! Helpers shared by the byte-identity integration suites.

use std::collections::BTreeMap;
use std::path::Path;

/// All published hint files in a SIS directory, name → raw bytes.
pub fn hint_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("sis dir exists")
        .map(|entry| {
            let entry = entry.expect("readable dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("readable hint file");
            (name, bytes)
        })
        .collect()
}
