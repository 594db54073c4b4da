//! Property tests for the borrowed triplegroup views ([`TgRef`],
//! [`AnnTgRef`]): because the codecs are canonical (one byte string per
//! logical group), a view parsed from an encoded record must re-encode
//! byte-identically, agree field-by-field with the owned decode, and merge
//! exactly like the owned join product.
//!
//! Every view primitive the physical operators run on is also checked
//! against its owned counterpart in `ops` / `spec`, which serve as the
//! reference: the group filter, full and merged α evaluation, Agg-Join
//! accumulation, and join-key extraction.

use rapida_ntga::{
    accumulate, accumulate_view, any_alpha_partial, any_alpha_partial_merged, opt_group_filter,
    opt_group_filter_into, AccumScratch, AggJoinSpec, AggOp, AggSpec, AlphaCond, AlphaTerm, AnnTg,
    AnnTgRef, JoinKey, PropReq, StarSpec, TgRef, TripleGroup, VarRef,
};
use rapida_testkit::prelude::*;
use std::sync::Arc;

fn arb_tg() -> impl Strategy<Value = TripleGroup> {
    (
        any::<u32>(),
        proptest::collection::vec((1u64..8, 0u64..12), 0..10),
    )
        .prop_map(|(s, pairs)| TripleGroup::new(u64::from(s), pairs))
}

/// Annotated triplegroups with sorted, unique star indices (the codec
/// invariant maintained by `AnnTg::single` / `merge`).
fn arb_ann() -> impl Strategy<Value = AnnTg> {
    proptest::collection::vec((0u8..5, arb_tg()), 1..4).prop_map(|mut groups| {
        groups.sort_by_key(|(s, _)| *s);
        groups.dedup_by_key(|(s, _)| *s);
        AnnTg { groups }
    })
}

/// Property requirements over the same small id space as [`arb_tg`], half
/// of them pinned to an object (type-style constraints).
fn arb_req() -> impl Strategy<Value = PropReq> {
    (1u64..8, proptest::option::of(0u64..12)).prop_map(|(prop, object)| PropReq { prop, object })
}

fn arb_star_spec() -> impl Strategy<Value = StarSpec> {
    (
        proptest::collection::vec(arb_req(), 0..3),
        proptest::collection::vec(arb_req(), 0..3),
    )
        .prop_map(|(primary, secondary)| StarSpec {
            star: 0,
            primary,
            secondary,
        })
}

fn arb_alpha() -> impl Strategy<Value = AlphaCond> {
    proptest::collection::vec((0u8..5, 1u64..8, any::<bool>()), 0..3).prop_map(|terms| AlphaCond {
        terms: terms
            .into_iter()
            .map(|(star, prop, required)| AlphaTerm {
                star,
                prop,
                required,
            })
            .collect(),
    })
}

/// A star reference: the subject (`prop == 0`) or the objects of `prop`.
fn star_ref(star: u8, prop: u64) -> VarRef {
    if prop == 0 {
        VarRef::Subject { star }
    } else {
        VarRef::ObjectOf { star, prop }
    }
}

/// Two-star annotated groups over three properties, so Agg-Join slots
/// often bind several values each.
fn arb_dense_ann() -> impl Strategy<Value = AnnTg> {
    let tg = || {
        (
            any::<u32>(),
            proptest::collection::vec((1u64..4, 0u64..12), 0..10),
        )
            .prop_map(|(s, pairs)| TripleGroup::new(u64::from(s), pairs))
    };
    (tg(), tg()).prop_map(|(a, b)| AnnTg {
        groups: vec![(0, a), (1, b)],
    })
}

/// Agg-Join specs over up to three slots of [`arb_dense_ann`]'s layout (star
/// 2 is absent), each optionally in the group key, with aggregates of every
/// op over any slot or `COUNT(*)`.
fn arb_agg_spec() -> impl Strategy<Value = AggJoinSpec> {
    (
        proptest::collection::vec((0u8..3, 0u64..4, any::<bool>()), 1..4),
        proptest::collection::vec((0usize..5, proptest::option::of(0usize..3)), 1..3),
    )
        .prop_map(|(slots, aggs)| {
            let ops = [AggOp::Count, AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max];
            AggJoinSpec {
                id: 0,
                group_slots: (0..slots.len()).filter(|&i| slots[i].2).collect(),
                aggs: aggs
                    .into_iter()
                    .map(|(op, arg)| AggSpec {
                        op: ops[op],
                        arg: arg.map(|a| a % slots.len()),
                    })
                    .collect(),
                slots: slots
                    .iter()
                    .map(|&(star, prop, _)| star_ref(star, prop))
                    .collect(),
                alpha: AlphaCond::default(),
            }
        })
}

/// Makes `r`'s star set disjoint from `l`'s (the merge precondition) by
/// shifting its indices above `l`'s maximum.
fn disjoint_right(l: &AnnTg, r: &AnnTg) -> AnnTg {
    let shift = l.groups.iter().map(|(s, _)| *s).max().unwrap_or(0) + 1;
    AnnTg {
        groups: r
            .groups
            .iter()
            .map(|(s, tg)| (s + shift, tg.clone()))
            .collect(),
    }
}

proptest! {
    /// encode -> `TgRef::parse` -> `encode_into` is the identity on bytes,
    /// and every view accessor agrees with the owned group.
    #[test]
    fn tg_view_roundtrip(tg in arb_tg()) {
        let mut rec = Vec::new();
        tg.encode(&mut rec);
        let v = TgRef::parse(&rec).expect("canonical record parses");

        let mut back = Vec::new();
        v.encode_into(&mut back);
        prop_assert_eq!(&back, &rec, "re-encode must be byte-identical");
        prop_assert_eq!(v.raw_bytes(), &rec[..], "view span is the record");

        prop_assert_eq!(v.subject(), tg.subject);
        prop_assert_eq!(v.len(), tg.triples.len());
        let pairs: Vec<(u64, u64)> = v.pairs().collect();
        prop_assert_eq!(&pairs, &tg.triples);
        prop_assert_eq!(v.to_owned(), tg.clone());
        for p in 0u64..8 {
            prop_assert_eq!(v.has_prop(p), tg.has_prop(p));
            let vo: Vec<u64> = v.objects_of(p).collect();
            let to: Vec<u64> = tg.objects_of(p).collect();
            prop_assert_eq!(vo, to);
        }
    }

    /// Same laws for annotated groups: byte-identical re-encode, star
    /// lookup agreement, and owned-decode agreement.
    #[test]
    fn ann_view_roundtrip(ann in arb_ann()) {
        let rec = ann.encoded();
        let v = AnnTgRef::parse(&rec).expect("canonical record parses");

        let mut back = Vec::new();
        v.encode_into(&mut back);
        prop_assert_eq!(&back, &rec, "re-encode must be byte-identical");

        prop_assert_eq!(v.len(), ann.groups.len());
        let stars: Vec<u8> = v.stars().collect();
        let owned_stars: Vec<u8> = ann.stars().collect();
        prop_assert_eq!(stars, owned_stars);
        for (s, tg) in &ann.groups {
            let comp = v.star(*s).expect("star present in view");
            prop_assert_eq!(comp.to_owned(), tg.clone());
        }
        prop_assert!(v.star(200).is_none(), "absent star yields None");
        prop_assert_eq!(v.to_owned(), ann.clone());
        prop_assert_eq!(AnnTg::decode(&rec), Some(ann.clone()));
    }

    /// `merge_into` over views produces exactly the bytes of the owned
    /// `AnnTg::merge` product (the α-join materialization path).
    #[test]
    fn ann_view_merge_matches_owned(l in arb_ann(), r in arb_ann()) {
        let r = disjoint_right(&l, &r);
        let (lrec, rrec) = (l.encoded(), r.encoded());
        let lv = AnnTgRef::parse(&lrec).expect("left parses");
        let rv = AnnTgRef::parse(&rrec).expect("right parses");

        let mut got = Vec::new();
        lv.merge_into(&rv, &mut got);
        prop_assert_eq!(got, l.merge(&r).encoded());
    }

    /// `opt_group_filter_into` appends exactly the encoding of the owned
    /// filter's output, and leaves the buffer untouched on rejection.
    #[test]
    fn opt_group_filter_into_matches_owned(tg in arb_tg(), spec in arb_star_spec()) {
        let mut rec = Vec::new();
        tg.encode(&mut rec);
        let v = TgRef::parse(&rec).expect("canonical record parses");
        let prefix = vec![0xAB, 0xCD];
        let mut got = prefix.clone();
        let kept = opt_group_filter_into(&v, &spec, &mut got);
        let mut want = prefix;
        match opt_group_filter(&tg, &spec) {
            Some(owned) => {
                prop_assert!(kept, "owned filter kept the group");
                owned.encode(&mut want);
            }
            None => prop_assert!(!kept, "owned filter rejected the group"),
        }
        prop_assert_eq!(got, want);
    }

    /// `satisfied_full_ref` over a view agrees with `satisfied_full`.
    #[test]
    fn satisfied_full_ref_matches_owned(ann in arb_ann(), alpha in arb_alpha()) {
        let rec = ann.encoded();
        let v = AnnTgRef::parse(&rec).expect("canonical record parses");
        prop_assert_eq!(alpha.satisfied_full_ref(&v), alpha.satisfied_full(&ann));
    }

    /// `accumulate_view` folds the same `(key, agg index, value)` sequence
    /// as `accumulate`, including on a second call reusing warm scratch.
    #[test]
    fn accumulate_view_matches_owned(ann in arb_dense_ann(), spec in arb_agg_spec()) {
        // Even term ids are numeric, odd ones are not.
        let numeric = Arc::new(
            (0..12u32)
                .map(|i| (i % 2 == 0).then_some(f64::from(i)))
                .collect::<Vec<_>>(),
        );
        let mut want = Vec::new();
        accumulate(&ann, &spec, &numeric, &mut |k, i, v| want.push((k.to_vec(), i, v)));
        let rec = ann.encoded();
        let v = AnnTgRef::parse(&rec).expect("canonical record parses");
        let mut scratch = AccumScratch::default();
        for _ in 0..2 {
            let mut got = Vec::new();
            accumulate_view(&v, &spec, &numeric, &mut scratch, &mut |k, i, x| {
                got.push((k.to_vec(), i, x))
            });
            prop_assert_eq!(&got, &want);
        }
    }

    /// `JoinKey::extract_ref` streams exactly the keys `extract` returns,
    /// in the same order.
    #[test]
    fn extract_ref_matches_owned(ann in arb_ann(), star in 0u8..5, prop in 0u64..8) {
        let key = match star_ref(star, prop) {
            VarRef::Subject { star } => JoinKey::Subject { star },
            VarRef::ObjectOf { star, prop } => JoinKey::ObjectOf { star, prop },
        };
        let rec = ann.encoded();
        let v = AnnTgRef::parse(&rec).expect("canonical record parses");
        let mut got = Vec::new();
        key.extract_ref(&v, |k| got.push(k));
        prop_assert_eq!(got, key.extract(&ann));
    }

    /// α over the logical merge of two views agrees with α over the owned
    /// merged product.
    #[test]
    fn any_alpha_partial_merged_matches_owned(
        l in arb_ann(),
        r in arb_ann(),
        conds in proptest::collection::vec(arb_alpha(), 0..3),
    ) {
        let r = disjoint_right(&l, &r);
        let (lrec, rrec) = (l.encoded(), r.encoded());
        let lv = AnnTgRef::parse(&lrec).expect("left parses");
        let rv = AnnTgRef::parse(&rrec).expect("right parses");
        prop_assert_eq!(
            any_alpha_partial_merged(&conds, &lv, &rv),
            any_alpha_partial(&conds, &l.merge(&r))
        );
    }
}
