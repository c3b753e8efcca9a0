//! Property tests of the wire decoders a peer can reach: the socket
//! protocol's `Req::decode` and `Resp::decode`, and the mining service's
//! `MiningRequest::decode`. None of them panics on arbitrary bytes or on a
//! valid encoding with one bit flipped. Whatever one accepts re-encodes to
//! bytes that decode back to the same value. Every retired request or
//! response code is a typed error.

use episodes::EpisodeParams;
use fpdm_service::{MiningRequest, RuleTag};
use plinda::codec::{encode_template, encode_tuple};
use plinda::net::proto::{Req, ReqBody, Resp, RespBody};
use plinda::{field, Template, Tuple, TypeTag, Value};
use proptest::prelude::*;
use seqmine::discover::DiscoveryParams;
use treemine::discover::TreeDiscoveryParams;

/// Request codes of frames the protocol no longer speaks (`Out` and
/// `OutDeferred` of one tuple, `Inp`, `Rdp`, `In`, `Rd`, `HasMatch`,
/// `InBatch`, `InpBatch`, `Batch`).
const RETIRED_REQ: [i64; 10] = [1, 3, 4, 5, 6, 10, 18, 21, 22, 23];
/// Response codes retired with them (`Tuple`, `Bool`, `Batch`).
const RETIRED_RESP: [i64; 3] = [2, 4, 8];

fn arb_value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Real),
        "[a-zA-Z0-9 ]{0,8}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..8).prop_map(Value::Bytes),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        prop_oneof![
            leaf,
            prop::collection::vec(arb_value(depth - 1), 0..3).prop_map(Value::List),
        ]
        .boxed()
    }
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(1), 0..4).prop_map(Tuple::new)
}

fn arb_tuples() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(arb_tuple(), 0..3)
}

fn arb_template() -> impl Strategy<Value = Template> {
    let field = prop_oneof![
        arb_value(1).prop_map(plinda::Field::Actual),
        prop_oneof![
            Just(TypeTag::Int),
            Just(TypeTag::Real),
            Just(TypeTag::Str),
            Just(TypeTag::Bytes),
            Just(TypeTag::List),
        ]
        .prop_map(field::of),
    ];
    prop::collection::vec(field, 0..4).prop_map(Template::new)
}

fn arb_req() -> impl Strategy<Value = Req> {
    let body =
        prop_oneof![
            arb_tuples().prop_map(ReqBody::Out),
            arb_tuples().prop_map(ReqBody::OutDeferred),
            Just(ReqBody::Flush),
            (arb_template(), any::<bool>(), any::<u64>())
                .prop_map(|(tmpl, take, max)| ReqBody::Poll { tmpl, take, max }),
            (arb_template(), any::<bool>(), any::<u64>())
                .prop_map(|(tmpl, take, max)| ReqBody::Wait { tmpl, take, max }),
            any::<u64>().prop_map(|wait_seq| ReqBody::Cancel { wait_seq }),
            Just(ReqBody::Len),
            arb_template().prop_map(ReqBody::Count),
            Just(ReqBody::Snapshot),
            arb_tuples().prop_map(ReqBody::Restore),
            any::<u64>().prop_map(|pid| ReqBody::TxnBegin { pid }),
            (any::<u64>(), arb_tuples(), (any::<bool>(), arb_tuple())).prop_map(
                |(pid, publish, (some, cont))| ReqBody::TxnCommit {
                    pid,
                    publish,
                    cont: some.then_some(cont),
                }
            ),
            (any::<u64>(), arb_tuples())
                .prop_map(|(pid, restore)| ReqBody::TxnAbort { pid, restore }),
            any::<u64>().prop_map(|pid| ReqBody::ContGet { pid }),
            any::<u64>().prop_map(|pid| ReqBody::ContClear { pid }),
        ];
    (any::<u64>(), body).prop_map(|(seq, body)| Req { seq, body })
}

fn arb_resp() -> impl Strategy<Value = Resp> {
    let body = prop_oneof![
        Just(RespBody::Ok),
        any::<u64>().prop_map(RespBody::Num),
        arb_tuples().prop_map(RespBody::Tuples),
        Just(RespBody::Cancelled),
        "[a-z ]{0,16}".prop_map(RespBody::Err),
    ];
    (any::<u64>(), body).prop_map(|(seq, body)| Resp { seq, body })
}

fn arb_mining_request() -> impl Strategy<Value = MiningRequest> {
    let nums = prop::collection::vec(0usize..1_000_000, 5..6);
    ("[a-z_]{0,12}", 0u8..5, nums, 1u32..1_000_000).prop_map(
        |(dataset, kind, n, window)| match kind {
            0 => MiningRequest::Seqmine {
                dataset,
                params: DiscoveryParams::new(n[0], n[1], n[2], n[3]).with_sample_occurrence(n[4]),
            },
            1 => MiningRequest::Treemine {
                dataset,
                params: TreeDiscoveryParams {
                    min_size: n[0],
                    max_size: n[1],
                    min_occurrence: n[2],
                    max_distance: n[3],
                },
            },
            2 => MiningRequest::Episodes {
                dataset,
                params: EpisodeParams {
                    window,
                    min_windows: n[0],
                    min_length: n[1],
                    max_length: n[2],
                },
            },
            3 => MiningRequest::Classify {
                dataset,
                rule: if n[4] % 2 == 0 {
                    RuleTag::Cart
                } else {
                    RuleTag::C45
                },
                min_split: n[0],
                max_depth: n[1],
            },
            _ => MiningRequest::Apriori {
                dataset,
                min_support: n[0],
            },
        },
    )
}

/// Flip bit `bit` (taken modulo the length) of `bytes`.
fn flip(mut bytes: Vec<u8>, bit: usize) -> Vec<u8> {
    let bit = bit % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
    bytes
}

/// Whatever `Req::decode` accepts is a fixed point of encode ∘ decode
/// (compared by encoding, which is bitwise and so NaN-safe).
fn req_is_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = Req::decode(bytes) {
        let again = Req::decode(&req.encode()).expect("re-encoding decodes");
        prop_assert_eq!(again.encode(), req.encode());
    }
    Ok(())
}

fn resp_is_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(resp) = Resp::decode(bytes) {
        let again = Resp::decode(&resp.encode()).expect("re-encoding decodes");
        prop_assert_eq!(again.encode(), resp.encode());
    }
    Ok(())
}

fn mining_is_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = MiningRequest::decode(bytes) {
        prop_assert_eq!(MiningRequest::decode(&req.encode()), Ok(req));
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        req_is_canonical(&bytes)?;
        resp_is_canonical(&bytes)?;
        mining_is_canonical(&bytes)?;
    }

    #[test]
    fn requests_roundtrip_and_survive_a_flipped_bit(req in arb_req(), bit in any::<usize>()) {
        let enc = req.encode();
        prop_assert_eq!(Req::decode(&enc).unwrap().encode(), enc.clone());
        req_is_canonical(&flip(enc, bit))?;
    }

    #[test]
    fn responses_roundtrip_and_survive_a_flipped_bit(resp in arb_resp(), bit in any::<usize>()) {
        let enc = resp.encode();
        prop_assert_eq!(Resp::decode(&enc).unwrap().encode(), enc.clone());
        resp_is_canonical(&flip(enc, bit))?;
    }

    #[test]
    fn mining_requests_roundtrip_and_survive_a_flipped_bit(
        req in arb_mining_request(),
        bit in any::<usize>(),
    ) {
        let enc = req.encode();
        prop_assert_eq!(MiningRequest::decode(&enc), Ok(req));
        mining_is_canonical(&flip(enc, bit))?;
    }

    /// A retired code is rejected whatever operands follow it, including
    /// the operands its frame used to carry.
    #[test]
    fn retired_codes_are_typed_errors(
        i in 0usize..RETIRED_REQ.len(),
        j in 0usize..RETIRED_RESP.len(),
        tmpl in arb_template(),
        rest in prop::collection::vec(arb_value(1), 0..4),
    ) {
        let mut fields = vec![Value::Int(RETIRED_REQ[i]), Value::Int(1), Value::Bytes(encode_template(&tmpl))];
        fields.extend(rest.iter().cloned());
        let err = Req::decode(&encode_tuple(&Tuple::new(fields))).unwrap_err();
        prop_assert!(err.0.contains("unknown request op"), "{:?}", err);

        let mut fields = vec![Value::Int(RETIRED_RESP[j]), Value::Int(1)];
        fields.extend(rest);
        let err = Resp::decode(&encode_tuple(&Tuple::new(fields))).unwrap_err();
        prop_assert!(err.0.contains("unknown response code"), "{:?}", err);
    }
}
