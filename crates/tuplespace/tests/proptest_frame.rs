//! Property tests of the socket frame layer: arbitrary tuples survive
//! encode → frame → arbitrary stream segmentation → decode, and corrupt
//! frames are rejected as typed errors, never panics.

use plinda::codec::{decode_tuple, encode_tuple};
use plinda::net::frame::{encode_frame, FrameReader, MAX_FRAME};
use plinda::net::proto::{Req, ReqBody};
use plinda::{field, PlindaError, Template, Tuple, Value};
use proptest::prelude::*;

fn arb_value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Real),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        prop_oneof![
            leaf,
            prop::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::List),
        ]
        .boxed()
    }
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(2), 0..6).prop_map(Tuple::new)
}

proptest! {
    /// Splitting the framed stream at *every* byte boundary: feed the
    /// stream one byte at a time and check each tuple pops out exactly
    /// once, whole, in order, and only once its last byte has arrived.
    #[test]
    fn split_at_every_byte_boundary(ts in prop::collection::vec(arb_tuple(), 1..5)) {
        let encoded: Vec<Vec<u8>> = ts.iter().map(encode_tuple).collect();
        let stream: Vec<u8> = encoded
            .iter()
            .flat_map(|p| encode_frame(p))
            .collect();
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for b in &stream {
            reader.push(std::slice::from_ref(b));
            while let Some(payload) = reader.pop().unwrap() {
                got.push(payload);
            }
        }
        prop_assert_eq!(&got, &encoded);
        prop_assert_eq!(reader.pending(), 0);
        for (orig, payload) in ts.iter().zip(&got) {
            let dec = decode_tuple(payload).unwrap();
            // Bitwise comparison (NaN-safe) via re-encoding.
            prop_assert_eq!(encode_tuple(&dec), encode_tuple(orig));
        }
    }

    /// Random chunk segmentation (the realistic socket case) is also
    /// lossless and order-preserving.
    #[test]
    fn random_chunking(ts in prop::collection::vec(arb_tuple(), 1..5), sizes in prop::collection::vec(1usize..17, 1..64)) {
        let encoded: Vec<Vec<u8>> = ts.iter().map(encode_tuple).collect();
        let stream: Vec<u8> = encoded
            .iter()
            .flat_map(|p| encode_frame(p))
            .collect();
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut off = 0;
        let mut i = 0;
        while off < stream.len() {
            let n = sizes[i % sizes.len()].min(stream.len() - off);
            i += 1;
            reader.push(&stream[off..off + n]);
            off += n;
            while let Some(payload) = reader.pop().unwrap() {
                got.push(payload);
            }
        }
        prop_assert_eq!(got, encoded);
    }

    /// A truncated final frame never yields a bogus tuple: the reader just
    /// reports "need more bytes" (the trailing bytes stay pending).
    #[test]
    fn truncated_frame_stays_pending(t in arb_tuple(), cut in 1usize..32) {
        let payload = encode_tuple(&t);
        let frame = encode_frame(&payload);
        let cut = cut.min(frame.len() - 1);
        let mut reader = FrameReader::new();
        reader.push(&frame[..frame.len() - cut]);
        prop_assert!(reader.pop().unwrap().is_none());
        prop_assert_eq!(reader.pending(), frame.len() - cut);
        // Delivering the remainder completes the frame.
        reader.push(&frame[frame.len() - cut..]);
        prop_assert_eq!(reader.pop().unwrap().unwrap(), payload);
    }

    /// Any length prefix above MAX_FRAME is rejected as a typed Codec
    /// error before allocating, whatever bytes follow.
    #[test]
    fn oversized_frame_rejected(extra in 1u32..1024, junk in prop::collection::vec(any::<u8>(), 0..32)) {
        let mut reader = FrameReader::new();
        reader.push(&(MAX_FRAME as u32 + extra).to_le_bytes());
        reader.push(&junk);
        prop_assert!(matches!(reader.pop(), Err(PlindaError::Codec(_))));
    }

    /// Garbage fed to the tuple decoder after correct framing surfaces as
    /// a typed codec error, not a panic.
    #[test]
    fn garbage_payload_is_typed_error(junk in prop::collection::vec(any::<u8>(), 1..64)) {
        let frame = encode_frame(&junk);
        let mut reader = FrameReader::new();
        reader.push(&frame);
        let payload = reader.pop().unwrap().unwrap();
        if let Err(e) = decode_tuple(&payload) {
            let typed: PlindaError = e.into();
            prop_assert!(matches!(typed, PlindaError::Codec(_)));
        }
    }

    /// The bulk and deferred request bodies survive encode → frame →
    /// byte-at-a-time delivery → decode with identity (compared by
    /// re-encoding, the codec's canonical form).
    #[test]
    fn batching_requests_roundtrip_split_delivery(
        ts in prop::collection::vec(arb_tuple(), 1..4),
        max in 1u64..64,
        seq in 1u64..1_000_000,
    ) {
        let tmpl = arb_template_like(&ts[0]);
        let reqs = [
            Req { seq, body: ReqBody::OutDeferred(vec![ts[0].clone()]) },
            Req { seq: seq + 1, body: ReqBody::OutDeferred(ts.clone()) },
            Req { seq: seq + 2, body: ReqBody::Flush },
            Req { seq: seq + 3, body: ReqBody::Wait { tmpl: tmpl.clone(), take: true, max } },
            Req { seq: seq + 4, body: ReqBody::Poll { tmpl, take: true, max } },
            Req {
                seq: seq + 5,
                body: ReqBody::TxnCommit { pid: 7, publish: ts.clone(), cont: Some(ts[0].clone()) },
            },
        ];
        let encoded: Vec<Vec<u8>> = reqs.iter().map(|r| r.encode()).collect();
        let stream: Vec<u8> = encoded.iter().flat_map(|p| encode_frame(p)).collect();
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for b in &stream {
            reader.push(std::slice::from_ref(b));
            while let Some(payload) = reader.pop().unwrap() {
                got.push(Req::decode(&payload).unwrap());
            }
        }
        prop_assert_eq!(got.len(), reqs.len());
        for (orig, dec) in encoded.iter().zip(&got) {
            prop_assert_eq!(orig, &dec.encode());
        }
    }

    /// Truncating an encoded bulk request at any interior byte is a typed
    /// decode error, never a panic or a bogus request.
    #[test]
    fn truncated_batching_requests_rejected(
        ts in prop::collection::vec(arb_tuple(), 1..4),
        cut in 1usize..64,
        seq in 1u64..1_000_000,
    ) {
        let req = Req { seq, body: ReqBody::OutDeferred(ts) };
        let payload = req.encode();
        let cut = cut.min(payload.len() - 1);
        let err = Req::decode(&payload[..payload.len() - cut]).unwrap_err();
        let typed: PlindaError = err.into();
        prop_assert!(matches!(typed, PlindaError::Codec(_)));
    }
}

/// A template that matches `t`'s shape: its leading string tag as an
/// actual (when present), everything else formal by type.
fn arb_template_like(t: &Tuple) -> Template {
    let fields =
        t.0.iter()
            .enumerate()
            .map(|(i, v)| match v {
                Value::Str(s) if i == 0 => field::val(s.as_str()),
                other => field::of(other.tag()),
            })
            .collect();
    Template::new(fields)
}
