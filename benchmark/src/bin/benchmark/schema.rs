//! The metric and workload names this binary reports — the same lists
//! `BENCHMARK.json` declares (a unit test holds the two together).

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of a single layer. No bound: it explains, it does not gate.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        better,
        bound,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

pub const E2E: [E2eMetric; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("backup_mib_s", "MiB/s", Better::Higher, 0.25),
    e2e("restore_mib_s", "MiB/s", Better::Higher, 0.25),
    e2e("cpu_s_per_gib", "s/GiB", Better::Lower, 0.25),
    e2e(
        "stored_bytes_per_logical_byte",
        "ratio",
        Better::Lower,
        0.08,
    ),
    e2e(
        "upload_bytes_per_logical_byte",
        "ratio",
        Better::Lower,
        0.15,
    ),
    e2e("put_requests_per_gib", "1/GiB", Better::Lower, 0.25),
    e2e("rss_growth_mib", "MiB", Better::Lower, 0.25),
];

pub const LAYERS: [LayerMetric; 63] = [
    hi("filetype.classify_mops_s", "Mops/s"),
    hi("chunking.sc_mib_s", "MiB/s"),
    hi("chunking.cdc_rabin_mib_s", "MiB/s"),
    hi("chunking.cdc_fastcdc_mib_s", "MiB/s"),
    lo("chunking.chunks_per_mib", "1/MiB"),
    lo("chunking.busy_ms", "ms"),
    hi("hashing.rabin96_mib_s", "MiB/s"),
    hi("hashing.md5_mib_s", "MiB/s"),
    hi("hashing.sha1_mib_s", "MiB/s"),
    lo("hashing.busy_ms", "ms"),
    lo("index.busy_ms", "ms"),
    hi("index.lookup_kops_s", "kops/s"),
    hi("index.hit_share", "share"),
    lo("index.disk_probes_per_lookup", "ratio"),
    hi("index.filter_reject_share", "share"),
    lo("index.filter_false_positive_share", "share"),
    lo("index.ram_mib", "MiB"),
    lo("index.persist_ms", "ms"),
    hi("index.snapshot_encode_mib_s", "MiB/s"),
    lo("index.snapshot_bytes_per_entry", "B"),
    hi("container.append_mib_s", "MiB/s"),
    hi("container.seal_mib_s", "MiB/s"),
    hi("container.parse_mib_s", "MiB/s"),
    hi("container.fill_ratio", "ratio"),
    lo("container.oversized_share", "share"),
    lo("container.busy_ms", "ms"),
    hi("cloud.put_mib_s", "MiB/s"),
    hi("cloud.get_mib_s", "MiB/s"),
    hi("cloud.fs_put_mib_s", "MiB/s"),
    hi("cloud.fs_get_mib_s", "MiB/s"),
    lo("cloud.wan_model_s", "s"),
    hi("recipe.encode_mib_s", "MiB/s"),
    hi("recipe.decode_mib_s", "MiB/s"),
    lo("recipe.bytes_per_file", "B"),
    lo("engine.layer_sum_ms", "ms"),
    lo("engine.unattributed_ms", "ms"),
    lo("engine.unattributed_share", "share"),
    lo("engine.stage_chunk_ms", "ms"),
    lo("engine.stage_hash_ms", "ms"),
    lo("engine.stage_index_ms", "ms"),
    lo("engine.stage_container_ms", "ms"),
    lo("engine.stage_upload_ms", "ms"),
    lo("engine.recorder_overhead_share", "share"),
    hi("engine.backup_w2_mib_s", "MiB/s"),
    hi("engine.parallel_speedup", "ratio"),
    lo("engine.w2_cpu_s_per_gib", "s/GiB"),
    lo("engine.w2_model_gap_share", "share"),
    lo("restore.fetch_ms", "ms"),
    lo("restore.parse_ms", "ms"),
    lo("restore.verify_ms", "ms"),
    lo("restore.assemble_ms", "ms"),
    lo("restore.unattributed_ms", "ms"),
    hi("restore.serial_mib_s", "MiB/s"),
    hi("restore.w2_mib_s", "MiB/s"),
    hi("restore.fetches_per_distinct_container", "ratio"),
    lo("restore.file_p50_ms", "ms"),
    lo("restore.file_p95_ms", "ms"),
    lo("restore.file_p99_ms", "ms"),
    hi("vacuum.scan_mib_s", "MiB/s"),
    hi("vacuum.reclaimed_share", "share"),
    lo("vacuum.containers_rewritten", "count"),
    lo("trace.spans", "count"),
    lo("trace.overhead_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use aadedupe_obs::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .as_str()
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_what_this_binary_reports() {
        let doc = manifest();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .as_arr()
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name));

        let declared = doc.get("end_to_end").as_arr().expect("end_to_end");
        assert_eq!(declared.len(), E2E.len());
        for (d, m) in declared.iter().zip(&E2E) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(d.get("bound").as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }

        let declared = doc.get("per_layer").as_arr().expect("per_layer");
        assert_eq!(declared.len(), LAYERS.len());
        for (d, m) in declared.iter().zip(&LAYERS) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better.as_str(), "{}", m.name);
        }
        assert_eq!(
            doc.get("run_seconds").as_f64(),
            Some(crate::run::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            s.len() <= 16
                && !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in E2E
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(E2E
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
