//! Allocation-budget test for the zero-copy operator path.
//!
//! Installs [`rapida_testkit::alloc_gauge::CountingAlloc`] as this test
//! binary's global allocator and drives [`TgJoinMapper`] directly over a
//! batch of encoded triplegroup records: once its scratch buffers are
//! warm, the mapper must stay under a small allocations-per-record ceiling
//! (steady state is zero: records are parsed as views and emits reuse two
//! cleared buffers), while emitting exactly the pairs the input implies.
//!
//! Everything is measured single-threaded in one `#[test]` — the gauge's
//! counters are global.

use rapida_mapred::{InputSrc, KvBuffer, MapOutput, MapTask};
use rapida_ntga::{
    JoinKey, PropReq, Side, StarRoute, StarSpec, TgJoinMapConfig, TgJoinMapper, TripleGroup,
};
use rapida_testkit::alloc_gauge::{self, CountingAlloc};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const RECORDS: usize = 2_000;
const PRODUCT: u64 = 3;
const PRICE: u64 = 4;
const DELIVERY: u64 = 5;

/// A product/price star with an optional delivery-days secondary — two
/// thirds of the records match, one third (`i % 3 == 2`) fails the primary
/// check.
fn records() -> Vec<Vec<u8>> {
    (0..RECORDS)
        .map(|i| {
            let s = 1_000 + i as u64;
            let triples = match i % 3 {
                0 => vec![(PRODUCT, s % 97), (PRICE, 10 + s % 50)],
                1 => vec![(PRODUCT, s % 97), (PRICE, 10 + s % 50), (DELIVERY, 7)],
                _ => vec![(PRICE, 10 + s % 50)], // no product: filtered out
            };
            let mut rec = Vec::new();
            TripleGroup::new(s, triples).encode(&mut rec);
            rec
        })
        .collect()
}

fn config() -> Arc<TgJoinMapConfig> {
    Arc::new(TgJoinMapConfig {
        raw_inputs: vec![0],
        star_routes: vec![StarRoute {
            spec: StarSpec {
                star: 0,
                primary: vec![PropReq::any(PRODUCT), PropReq::any(PRICE)],
                secondary: vec![PropReq::any(DELIVERY)],
            },
            side: Side::Left,
            key: JoinKey::Subject { star: 0 },
            prefilter: None,
        }],
        ann_routes: Vec::new(),
    })
}

/// Sized so the pre-built output sink never grows during the measured pass.
fn sized_output() -> MapOutput {
    MapOutput {
        kvs: KvBuffer::with_capacity(2 * RECORDS, 128 * RECORDS),
        ..MapOutput::default()
    }
}

/// One warm-up pass (fills the mapper's scratch buffers), then a measured
/// pass into a pre-sized sink. Returns `(allocations, emitted pairs)`.
fn measure(cfg: Arc<TgJoinMapConfig>, recs: &[Vec<u8>]) -> (u64, usize) {
    let src = InputSrc { dataset: 0 };
    let mut mapper = TgJoinMapper::new(cfg);
    let mut warm = sized_output();
    for r in recs {
        mapper.map(src, r, &mut warm);
    }
    let mut out = sized_output();
    alloc_gauge::reset();
    for r in recs {
        mapper.map(src, r, &mut out);
    }
    let (allocs, _bytes) = alloc_gauge::counters();
    assert_eq!(out.kvs.len(), warm.kvs.len(), "passes must emit identically");
    (allocs, out.kvs.len())
}

#[test]
fn view_path_allocations_bounded() {
    let recs = records();
    let (allocs, pairs) = measure(config(), &recs);
    // One pair per record passing the filter, keyed on its subject.
    let expected = (0..RECORDS).filter(|i| i % 3 != 2).count();
    assert_eq!(pairs, expected, "one emit per matching record");

    // Absolute ceiling: the warm view path is allocation-free per record;
    // allow 0.05 allocs/record of slack for incidental growth.
    let ceiling = (RECORDS / 20) as u64;
    assert!(
        allocs <= ceiling,
        "view path allocated {allocs} times over {RECORDS} records \
         (ceiling {ceiling})"
    );
}
