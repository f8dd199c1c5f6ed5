//! Criterion benches for the substrate subsystems themselves: event
//! queue throughput, Active Messages protocol, software RAID data path,
//! xFS operations, the LRU, and content hashing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    use now_sim::{EventQueue, SimDuration};
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_after(SimDuration::from_nanos((i * 37) % 1_000 + 1), i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_active_messages(c: &mut Criterion) {
    use now_am::{ActiveMessages, AmConfig};
    use now_net::{presets, NodeId};
    use now_sim::SimTime;
    let mut g = c.benchmark_group("active_messages");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("request_reply_1k", |b| {
        b.iter(|| {
            let mut am = ActiveMessages::new(presets::am_atm(8), AmConfig::default(), 1);
            for i in 0..1_000u64 {
                am.request_at(
                    SimTime::from_micros(i),
                    NodeId((i % 7) as u32),
                    NodeId(7),
                    64,
                );
            }
            black_box(am.run_to_completion().len())
        })
    });
    g.finish();
}

fn bench_raid(c: &mut Criterion) {
    use now_raid::{RaidConfig, RaidLevel, SoftwareRaid, StripeLog};
    let mut g = c.benchmark_group("software_raid");
    g.throughput(Throughput::Bytes(8_192 * 256));
    g.bench_function("raid5_small_writes_256", |b| {
        b.iter(|| {
            let mut r = SoftwareRaid::new(RaidConfig {
                level: RaidLevel::Raid5,
                disks: 8,
                block_bytes: 8_192,
            });
            for i in 0..256 {
                r.write(i, &[i as u8; 8_192]).unwrap();
            }
            black_box(r.stats().disk_ops)
        })
    });
    g.bench_function("log_structured_writes_256", |b| {
        b.iter(|| {
            let raid = SoftwareRaid::new(RaidConfig {
                level: RaidLevel::Raid5,
                disks: 8,
                block_bytes: 8_192,
            });
            let mut log = StripeLog::new(raid);
            for i in 0..256 {
                log.write(i, &[i as u8; 8_192]).unwrap();
            }
            log.flush().unwrap();
            black_box(log.raid_mut().stats().disk_ops)
        })
    });
    g.bench_function("raid5_degraded_reads_128", |b| {
        let mut r = SoftwareRaid::new(RaidConfig {
            level: RaidLevel::Raid5,
            disks: 8,
            block_bytes: 8_192,
        });
        for i in 0..128 {
            r.write(i, &[i as u8; 8_192]).unwrap();
        }
        r.fail_disk(3);
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..128 {
                sum += r.read(i).unwrap().0[0] as u64;
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_xfs(c: &mut Criterion) {
    use now_xfs::{Xfs, XfsConfig};
    let mut g = c.benchmark_group("xfs");
    g.sample_size(20);
    g.bench_function("write_read_coherence_512_ops", |b| {
        b.iter(|| {
            let mut fs = Xfs::new(XfsConfig::small());
            let f = fs.create("/bench").unwrap();
            let block = vec![1u8; fs.block_bytes()];
            for i in 0..256u32 {
                fs.write(i % 8, f, i % 32, &block).unwrap();
                black_box(fs.read((i + 1) % 8, f, i % 32).unwrap());
            }
            black_box(fs.stats().time)
        })
    });
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    use now_mem::LruCache;
    let mut g = c.benchmark_group("lru_cache");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("touch_100k_zipfish", |b| {
        b.iter(|| {
            let mut lru = LruCache::new(4_096);
            for i in 0..100_000u64 {
                lru.touch((i * i) % 16_384, i % 5 == 0);
            }
            black_box(lru.len())
        })
    });
    g.finish();
}

fn bench_cas(c: &mut Criterion) {
    use now_cas::{BlockHash, ImageCatalog, ImageCatalogSpec, DEFAULT_CHUNK_BYTES};
    let chunks: Vec<Vec<u8>> = (0..64u64)
        .map(|i| {
            (0..DEFAULT_CHUNK_BYTES as u64)
                .map(|j| (i.wrapping_mul(0x9e37_79b9) ^ j.wrapping_mul(131)) as u8)
                .collect()
        })
        .collect();
    let mut g = c.benchmark_group("cas");
    g.throughput(Throughput::Bytes((64 * DEFAULT_CHUNK_BYTES) as u64));
    g.bench_function("block_hash/serial_64x16k", |b| {
        b.iter(|| {
            chunks
                .iter()
                .fold(0u64, |acc, c| acc ^ BlockHash::of(7, black_box(c)).0)
        })
    });
    g.bench_function("block_hash/lanes_64x16k", |b| {
        b.iter(|| BlockHash::of_chunks(7, chunks.iter().map(|c| black_box(&c[..]))))
    });
    // The catalog `repro distribute` and the benchmark publish: 8 images
    // on a 24-file base layer, 8 app files each, 64 KiB mean file size.
    let spec = ImageCatalogSpec {
        images: 8,
        base_files: 24,
        app_files: 8,
        file_bytes: 64 * 1024,
        chunk_bytes: DEFAULT_CHUNK_BYTES,
        seed: 42,
    };
    g.throughput(Throughput::Elements(u64::from(spec.images)));
    g.sample_size(20);
    g.bench_function("catalog/generate_bench_shape", |b| {
        b.iter(|| ImageCatalog::generate(black_box(&spec)).store.len())
    });
    g.finish();
}

criterion_group!(
    subsystems,
    bench_event_queue,
    bench_active_messages,
    bench_raid,
    bench_xfs,
    bench_lru,
    bench_cas,
);
criterion_main!(subsystems);
