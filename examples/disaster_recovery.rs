//! Disaster recovery: resume a client from nothing but its cloud state.
//!
//! AA-Dedupe's manifests + containers are self-describing: the committed
//! manifests say everything the application-aware index held. This
//! example wipes the client — the "stolen laptop" scenario — resumes from
//! the cloud alone with [`AaDedupe::open`], checks that the rebuilt index
//! encodes to the very bytes the lost one did, and shows that
//! deduplication and restore continue seamlessly.
//!
//! ```sh
//! cargo run --release --example disaster_recovery
//! ```

use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme};
use aa_dedupe::index::codec::encode_app_aware;
use aa_dedupe::workload::{DatasetSpec, Generator};

fn main() {
    let cloud = CloudSim::with_paper_defaults();
    let config = AaDedupeConfig::default();
    let mut engine = AaDedupe::with_config(cloud.clone(), config.clone());

    let mut generator = Generator::new(DatasetSpec::paper_scaled(8 << 20), 99);
    let week0 = generator.snapshot(0);
    let r0 = engine.backup_session(&week0.as_sources()).expect("backup failed");
    let indexed = engine.index().len();
    let lost_index = encode_app_aware(engine.index());
    println!("week 0 backed up: {} chunks indexed, {} bytes stored", indexed, r0.stored_bytes);

    // --- disaster: the laptop dies; a new client resumes from the cloud --
    drop(engine);
    let mut recovered = AaDedupe::open(cloud.clone(), config).expect("resume failed");
    assert_eq!(recovered.sessions_completed(), 1, "session counter resumed");
    assert_eq!(encode_app_aware(recovered.index()), lost_index, "index rebuilt from manifests");
    println!("resumed from cloud: session counter at {}, {} chunks indexed (same entries and placements)",
        recovered.sessions_completed(), recovered.index().len());

    // The resumed client dedupes week 1 against week 0's chunks.
    let week1 = generator.snapshot(1);
    let r1 = recovered.backup_session(&week1.as_sources()).expect("backup failed");
    println!(
        "week 1 on resumed client: {} logical, {} stored (dedup against recovered state works)",
        r1.logical_bytes, r1.stored_bytes
    );
    assert!(
        r1.stored_bytes < r0.stored_bytes / 2,
        "most of week 1 should dedupe against week 0"
    );

    // And week 0's data itself is still fully restorable.
    let restored = recovered.restore_session(0).expect("restore failed");
    assert_eq!(restored.len(), week0.file_count());
    for f in &week0.files {
        let got = restored.iter().find(|r| r.path == f.path).expect("file present");
        assert_eq!(got.data, f.materialize(), "{}", f.path);
    }
    println!("week 0 restores bit-exactly on the resumed client ({} files)", restored.len());
}
