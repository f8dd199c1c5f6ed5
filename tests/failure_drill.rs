//! Failure drill: the paper's availability story exercised end to end.
//!
//! "If a workstation fails in our model, it only affects the programs
//! using that CPU; those programs can restart from their last checkpoint,
//! while programs running on other CPUs continue unaffected." This suite
//! injects failures at every layer — clients, managers, disks, donor
//! hosts, compute nodes — in sequence and in combination, and checks that
//! service degrades exactly as far as the design says and no further.

use now_core::{Interconnect, NowCluster};
use now_glunix::exec::{run_batch, ExecConfig, SeqJob};
use now_mem::{DiskModel, NetworkRam, PageId, Pager, RemoteAccessCost};
use now_sim::{SimDuration, SimTime};

#[test]
fn rolling_client_failures_never_lose_synced_data() {
    let mut now = NowCluster::builder()
        .nodes(12)
        .interconnect(Interconnect::AtmActiveMessages)
        .build();
    let f = now.fs().create("/drill/data").unwrap();
    let bytes = now.fs().block_bytes();
    for b in 0..24u32 {
        now.fs().write(b % 12, f, b, &vec![b as u8; bytes]).unwrap();
    }
    for c in 0..12 {
        now.fs().sync(c).unwrap();
    }
    // Fail a third of the cluster, one node at a time, verifying after
    // each that a surviving client reads everything.
    for victim in [1u32, 4, 7, 10] {
        let lost = now.fs().fail_client(victim);
        assert!(lost.is_empty(), "victim {victim} lost {lost:?}");
        let reader = (victim + 1) % 12;
        for b in 0..24u32 {
            assert_eq!(
                now.fs().read(reader, f, b).unwrap()[0],
                b as u8,
                "after failing {victim}, block {b}"
            );
        }
    }
}

#[test]
fn compound_failure_manager_plus_disk_plus_client() {
    let mut now = NowCluster::builder().nodes(16).build();
    let f = now.fs().create("/drill/compound").unwrap();
    let bytes = now.fs().block_bytes();
    for b in 0..32u32 {
        now.fs()
            .write(0, f, b, &vec![0xC0 | (b as u8 & 0x0F); bytes])
            .unwrap();
    }
    now.fs().sync(0).unwrap();

    // One failure from each class, simultaneously outstanding.
    now.fs().fail_client(0);
    now.fs().recover_manager(2);
    now.fs().storage_mut().raid_mut().fail_disk(1);

    for b in 0..32u32 {
        assert_eq!(
            now.fs().read(9, f, b).unwrap()[0],
            0xC0 | (b as u8 & 0x0F),
            "compound-degraded block {b}"
        );
    }
    // Repair and verify normal service resumes.
    now.fs().storage_mut().raid_mut().reconstruct(1).unwrap();
    now.fs().revive_client(0);
    now.fs().write(0, f, 0, &vec![0xEE; bytes]).unwrap();
    assert_eq!(now.fs().read(5, f, 0).unwrap()[0], 0xEE);
}

#[test]
fn unsynced_data_loss_is_contained_to_the_failed_client() {
    let mut now = NowCluster::builder().nodes(8).build();
    let f = now.fs().create("/drill/partial").unwrap();
    let bytes = now.fs().block_bytes();
    // Client 2 writes blocks 0..4 and syncs; then writes 4..8 unsynced.
    for b in 0..4u32 {
        now.fs().write(2, f, b, &vec![1; bytes]).unwrap();
    }
    now.fs().sync(2).unwrap();
    for b in 4..8u32 {
        now.fs().write(2, f, b, &vec![2; bytes]).unwrap();
    }
    let lost = now.fs().fail_client(2);
    // Exactly the unsynced blocks are reported lost...
    let lost_blocks: Vec<u32> = lost.iter().map(|(_, b)| *b).collect();
    assert_eq!(lost_blocks, vec![4, 5, 6, 7]);
    // ...the synced ones remain readable...
    for b in 0..4u32 {
        assert_eq!(now.fs().read(1, f, b).unwrap()[0], 1);
    }
    // ...and the lost ones fail loudly rather than returning garbage.
    for b in 4..8u32 {
        assert!(
            now.fs().read(1, f, b).is_err(),
            "block {b} must not resurrect"
        );
    }
}

#[test]
fn netram_job_survives_donor_churn() {
    // An out-of-core job keeps running as donor hosts come and go; its
    // pages degrade to disk prices, never to wrong data or a crash.
    let pool = NetworkRam::new(4, 512, 512, RemoteAccessCost::table2_atm(), 8_192);
    let mut pager = Pager::with_netram(64, 8_192, pool, DiskModel::workstation_1994());
    // Touch a working set larger than local frames.
    for i in 0..512u64 {
        pager.access(PageId(i), true, SimDuration::ZERO);
    }
    // Two donors leave mid-run.
    pager.handle_host_eviction(0);
    pager.handle_host_eviction(3);
    assert!(pager.stats().host_evicted_pages > 0);
    // The full working set remains accessible.
    for i in 0..512u64 {
        let (kind, _) = pager.access(PageId(i), false, SimDuration::ZERO);
        assert!(
            !matches!(kind, now_mem::FaultKind::SoftFault),
            "page {i} lost its contents"
        );
    }
}

#[test]
fn sequential_jobs_ride_through_a_cascade_of_node_failures() {
    // Five nodes, three of which die while a batch runs; every job still
    // completes, losing at most a checkpoint interval per failure.
    let jobs: Vec<SeqJob> = (0..10)
        .map(|i| SeqJob {
            arrival: SimTime::from_secs(i * 5),
            service: SimDuration::from_secs(600),
        })
        .collect();
    let config = ExecConfig {
        sandbox: true,
        checkpoint_every: SimDuration::from_secs(60),
        restart_cost: SimDuration::from_secs(5),
    };
    let failures = [
        (SimTime::from_secs(100), 0u32),
        (SimTime::from_secs(200), 1),
        (SimTime::from_secs(300), 2),
    ];
    let out = run_batch(&jobs, 5, &failures, &config);
    assert_eq!(out.completions.len(), 10);
    assert!(
        out.restarts >= 3,
        "the dead nodes had jobs: {}",
        out.restarts
    );
    // Dead nodes host nothing after their failure: all placements beyond
    // the initial ones land on survivors (3 and 4 absorb the refugees).
    assert!(out.placements[3] + out.placements[4] > 4);
}

#[test]
fn membership_detects_exactly_the_silent_nodes() {
    let mut now = NowCluster::builder().nodes(10).build();
    let t = SimTime::from_secs(100);
    for n in 0..10u32 {
        if n % 3 != 0 {
            now.membership_mut().heartbeat(n, t);
        }
    }
    let failed = now.membership_mut().sweep(t);
    assert_eq!(failed, vec![0, 3, 6, 9]);
    // The survivors are exactly the heartbeaters.
    assert_eq!(now.membership_mut().up_nodes().len(), 6);
    // A rebooted node rejoins cleanly.
    now.membership_mut().heartbeat(3, SimTime::from_secs(101));
    assert_eq!(now.membership_mut().up_nodes().len(), 7);
}
