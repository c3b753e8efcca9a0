//! The request/response protocol of the socket backend.
//!
//! Every frame payload is one [`crate::codec`]-encoded *tuple* — the wire
//! format is the codec the checkpoint path already trusts, reused whole.
//! A request tuple is `[Int(op), Int(seq), …operands]`; a response tuple
//! is `[Int(code), Int(seq), …operands]`. Operands are scalars (`Int`,
//! `Str`) or `Bytes` fields wrapping the codec's tuple/template/snapshot
//! encodings. The `seq` is chosen by the client and echoed by the broker,
//! which is how a client polling for a blocking-wait reply distinguishes
//! it from the reply to a later `Cancel`.
//!
//! ## Vocabulary
//!
//! One frame per Linda operation family: 15 request frames ([`ReqOp`])
//! and 5 response frames ([`RespOp`]), each declared once with its wire
//! code. The frames carry the three shapes of
//! [`crate::backend::SpaceBackend`]: `Out`/`OutDeferred` is its `out`
//! (one tuple or many), `Poll { tmpl, take, max }` its `poll` (`inp`,
//! `rdp`, `inp_batch`) and `Wait { tmpl, take, max }` its `wait` (`in`,
//! `rd`, `in_batch`). Every retrieval is answered with `Tuples`: possibly
//! empty for a `Poll`, never empty for a `Wait`. A take returns at most
//! `max` tuples (a `max` of 0 counts as 1), and a read (`take: false`)
//! returns at most one, whatever its `max`.
//!
//! Blocking waits are asymmetric: a `Wait` that cannot be satisfied
//! immediately gets *no* response until a matching tuple arrives; the
//! client may send `Cancel { wait_seq }` at any time, after which the
//! broker responds `Cancelled { seq: wait_seq }` (wait revoked) or has
//! already sent `Tuples { seq: wait_seq }` (the wait won the race — the
//! client re-`Out`s the tuples it took). The `Cancel` itself is always
//! answered with `Ok`.
//!
//! `OutDeferred` is fire-and-forget: the broker parks its tuples per
//! connection and applies them, in program order, immediately before the
//! connection's next response-bearing request (every such request is a
//! flush barrier). `Flush` forces application and answers `Num(n)`, the
//! number of deferred tuples applied since the previous ack. `TxnCommit`
//! answers the same count, so a commit acknowledges the deferred outs
//! that rode ahead of it in its own round trip. Parked tuples of a dead
//! connection were never visible and are discarded.

use crate::codec::{
    decode_template, decode_tuple, decode_tuples, encode_template, encode_tuple, encode_tuples,
    CodecError,
};
use crate::template::Template;
use crate::value::{Tuple, Value};

/// Declare a frame vocabulary, one `Name = wire code` line per frame. The
/// enum's discriminants are the codes, and `ALL`, `name` and `from_code`
/// are generated from the same lines, so encode, decode and
/// [`super::spec`]'s alphabet read one statement of each frame.
macro_rules! vocabulary {
    ($(#[$meta:meta])* $ty:ident { $($(#[$vmeta:meta])* $op:ident = $code:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vmeta])* $op = $code,)+
        }

        impl $ty {
            /// Every frame of the vocabulary, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$op),+];

            /// The frame's name, which is also its letter in the
            /// protocol spec's alphabet.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$op => stringify!($op),)+
                }
            }

            fn from_code(code: i64) -> Option<$ty> {
                Self::ALL.iter().copied().find(|op| *op as i64 == code)
            }
        }
    };
}

vocabulary! {
    /// The request frames and their wire codes. Codes of retired frames
    /// (1, 3–6, 10, 18, 21–23) are never reused, so a peer speaking an
    /// older vocabulary gets a typed error, not a misread frame.
    ReqOp {
        /// `out`/`out_all`: make the tuples visible, atomically.
        Out = 2,
        /// Fire-and-forget `out`, parked until the next flush barrier.
        OutDeferred = 19,
        /// Apply the parked deferred outs; answers `Num(acked)`.
        Flush = 20,
        /// Non-blocking `inp`/`rdp`/`inp_batch`; answers `Tuples`.
        Poll = 24,
        /// Blocking `in`/`rd`/`in_batch`; answered with non-empty
        /// `Tuples` once satisfied, or `Cancelled`.
        Wait = 25,
        /// Revoke a pending `Wait`; answers `Ok`.
        Cancel = 7,
        /// Visible tuple count; answers `Num`.
        Len = 8,
        /// Count matches of a template; answers `Num`.
        Count = 9,
        /// Consistent cut of the visible space; answers `Tuples`.
        Snapshot = 11,
        /// Replace the visible space (rollback recovery); answers `Ok`.
        Restore = 12,
        /// Open a transaction on this connection; answers `Ok`.
        TxnBegin = 13,
        /// Atomic commit: publish and record the continuation in one
        /// step; answers `Num(acked)` like `Flush`.
        TxnCommit = 14,
        /// Abort: restore tentative withdrawals; answers `Ok`.
        TxnAbort = 15,
        /// Latest continuation of a pid; answers `Tuples` (0 or 1).
        ContGet = 16,
        /// Drop the continuation of a pid; answers `Ok`.
        ContClear = 17,
    }
}

vocabulary! {
    /// The response frames and their wire codes. Codes of retired frames
    /// (2, 4, 8) are never reused.
    RespOp {
        /// Success, no payload.
        Ok = 1,
        /// A count.
        Num = 3,
        /// Retrieved tuples, a snapshot or a continuation.
        Tuples = 5,
        /// A pending wait was revoked by `Cancel`.
        Cancelled = 6,
        /// The broker rejected the request.
        Err = 7,
    }
}

/// A client request: `seq` echoes back on the matching response.
#[derive(Debug, Clone)]
pub struct Req {
    /// Client-chosen sequence number.
    pub seq: u64,
    /// The operation.
    pub body: ReqBody,
}

/// A request frame with its operands; see [`ReqOp`] for each frame's
/// meaning and answer.
#[derive(Debug, Clone)]
pub enum ReqBody {
    /// The tuples to publish.
    Out(Vec<Tuple>),
    /// The tuples to park.
    OutDeferred(Vec<Tuple>),
    /// No operands.
    Flush,
    /// A non-blocking retrieval.
    Poll {
        /// Template every returned tuple matches.
        tmpl: Template,
        /// Withdraw the tuples (`inp`) rather than copy one (`rdp`).
        take: bool,
        /// Upper bound on tuples withdrawn.
        max: u64,
    },
    /// A blocking retrieval.
    Wait {
        /// Template every returned tuple matches.
        tmpl: Template,
        /// Withdraw the tuples (`in`) rather than copy one (`rd`).
        take: bool,
        /// Upper bound on tuples withdrawn.
        max: u64,
    },
    /// Revoke a pending wait.
    Cancel {
        /// The `seq` of the `Wait` being revoked.
        wait_seq: u64,
    },
    /// No operands.
    Len,
    /// The template to count.
    Count(Template),
    /// No operands.
    Snapshot,
    /// The new contents of the space.
    Restore(Vec<Tuple>),
    /// Open a transaction for logical process `pid`.
    TxnBegin {
        /// Logical process id.
        pid: u64,
    },
    /// Commit `pid`'s transaction.
    TxnCommit {
        /// Logical process id.
        pid: u64,
        /// Tuples to publish atomically.
        publish: Vec<Tuple>,
        /// Continuation to record, if any.
        cont: Option<Tuple>,
    },
    /// Abort `pid`'s transaction.
    TxnAbort {
        /// Logical process id.
        pid: u64,
        /// Client-side record of tentative withdrawals (the broker's own
        /// tracking is authoritative; this rides along for diagnostics).
        restore: Vec<Tuple>,
    },
    /// Ask for `pid`'s continuation.
    ContGet {
        /// Logical process id.
        pid: u64,
    },
    /// Drop `pid`'s continuation.
    ContClear {
        /// Logical process id.
        pid: u64,
    },
}

impl ReqBody {
    /// The frame this body travels as.
    pub fn op(&self) -> ReqOp {
        match self {
            ReqBody::Out(_) => ReqOp::Out,
            ReqBody::OutDeferred(_) => ReqOp::OutDeferred,
            ReqBody::Flush => ReqOp::Flush,
            ReqBody::Poll { .. } => ReqOp::Poll,
            ReqBody::Wait { .. } => ReqOp::Wait,
            ReqBody::Cancel { .. } => ReqOp::Cancel,
            ReqBody::Len => ReqOp::Len,
            ReqBody::Count(_) => ReqOp::Count,
            ReqBody::Snapshot => ReqOp::Snapshot,
            ReqBody::Restore(_) => ReqOp::Restore,
            ReqBody::TxnBegin { .. } => ReqOp::TxnBegin,
            ReqBody::TxnCommit { .. } => ReqOp::TxnCommit,
            ReqBody::TxnAbort { .. } => ReqOp::TxnAbort,
            ReqBody::ContGet { .. } => ReqOp::ContGet,
            ReqBody::ContClear { .. } => ReqOp::ContClear,
        }
    }
}

/// A broker response; `seq` matches the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Resp {
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// The result.
    pub body: RespBody,
}

/// A response frame with its operands; see [`RespOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum RespBody {
    /// No operands.
    Ok,
    /// The count.
    Num(u64),
    /// The tuples.
    Tuples(Vec<Tuple>),
    /// No operands.
    Cancelled,
    /// Why the request was rejected.
    Err(String),
}

impl RespBody {
    /// The frame this body travels as.
    pub fn op(&self) -> RespOp {
        match self {
            RespBody::Ok => RespOp::Ok,
            RespBody::Num(_) => RespOp::Num,
            RespBody::Tuples(_) => RespOp::Tuples,
            RespBody::Cancelled => RespOp::Cancelled,
            RespBody::Err(_) => RespOp::Err,
        }
    }
}

impl Req {
    /// Encode as a frame payload (a codec-encoded tuple).
    pub fn encode(&self) -> Vec<u8> {
        use Value::{Bytes, Int};
        let mut f = vec![Int(self.body.op() as i64), Int(self.seq as i64)];
        match &self.body {
            ReqBody::Out(ts) | ReqBody::OutDeferred(ts) | ReqBody::Restore(ts) => {
                f.push(Bytes(encode_tuples(ts)))
            }
            ReqBody::Flush | ReqBody::Len | ReqBody::Snapshot => {}
            ReqBody::Poll { tmpl, take, max } | ReqBody::Wait { tmpl, take, max } => f.extend([
                Bytes(encode_template(tmpl)),
                Int(i64::from(*take)),
                Int(*max as i64),
            ]),
            ReqBody::Count(tmpl) => f.push(Bytes(encode_template(tmpl))),
            ReqBody::Cancel { wait_seq: n }
            | ReqBody::TxnBegin { pid: n }
            | ReqBody::ContGet { pid: n }
            | ReqBody::ContClear { pid: n } => f.push(Int(*n as i64)),
            ReqBody::TxnCommit { pid, publish, cont } => f.extend([
                Int(*pid as i64),
                Bytes(encode_tuples(publish)),
                Bytes(encode_tuples(cont.as_slice())),
            ]),
            ReqBody::TxnAbort { pid, restore } => {
                f.extend([Int(*pid as i64), Bytes(encode_tuples(restore))])
            }
        }
        encode_tuple(&Tuple::new(f))
    }

    /// Decode a frame payload produced by [`Req::encode`].
    pub fn decode(payload: &[u8]) -> Result<Req, CodecError> {
        let t = decode_tuple(payload)?;
        let f = &t.0;
        let code = int_at(f, 0, "request op")?;
        let seq = int_at(f, 1, "request seq")? as u64;
        let op = ReqOp::from_code(code)
            .ok_or_else(|| CodecError(format!("unknown request op {code}")))?;
        let what = op.name();
        let retrieval = || -> Result<(Template, bool, u64), CodecError> {
            Ok((
                decode_template(bytes_at(f, 2, what)?)?,
                int_at(f, 3, what)? != 0,
                int_at(f, 4, what)? as u64,
            ))
        };
        let body = match op {
            ReqOp::Out => ReqBody::Out(tuples_at(f, 2, what)?),
            ReqOp::OutDeferred => ReqBody::OutDeferred(tuples_at(f, 2, what)?),
            ReqOp::Flush => ReqBody::Flush,
            ReqOp::Poll => {
                let (tmpl, take, max) = retrieval()?;
                ReqBody::Poll { tmpl, take, max }
            }
            ReqOp::Wait => {
                let (tmpl, take, max) = retrieval()?;
                ReqBody::Wait { tmpl, take, max }
            }
            ReqOp::Cancel => ReqBody::Cancel {
                wait_seq: int_at(f, 2, what)? as u64,
            },
            ReqOp::Len => ReqBody::Len,
            ReqOp::Count => ReqBody::Count(decode_template(bytes_at(f, 2, what)?)?),
            ReqOp::Snapshot => ReqBody::Snapshot,
            ReqOp::Restore => ReqBody::Restore(tuples_at(f, 2, what)?),
            ReqOp::TxnBegin => ReqBody::TxnBegin {
                pid: int_at(f, 2, what)? as u64,
            },
            ReqOp::TxnCommit => {
                let mut cont = tuples_at(f, 4, what)?;
                if cont.len() > 1 {
                    return Err(CodecError(format!(
                        "{what}: expected at most 1 continuation, got {}",
                        cont.len()
                    )));
                }
                ReqBody::TxnCommit {
                    pid: int_at(f, 2, what)? as u64,
                    publish: tuples_at(f, 3, what)?,
                    cont: cont.pop(),
                }
            }
            ReqOp::TxnAbort => ReqBody::TxnAbort {
                pid: int_at(f, 2, what)? as u64,
                restore: tuples_at(f, 3, what)?,
            },
            ReqOp::ContGet => ReqBody::ContGet {
                pid: int_at(f, 2, what)? as u64,
            },
            ReqOp::ContClear => ReqBody::ContClear {
                pid: int_at(f, 2, what)? as u64,
            },
        };
        Ok(Req { seq, body })
    }
}

impl Resp {
    /// Encode as a frame payload (a codec-encoded tuple).
    pub fn encode(&self) -> Vec<u8> {
        use Value::{Bytes, Int, Str};
        let mut f = vec![Int(self.body.op() as i64), Int(self.seq as i64)];
        match &self.body {
            RespBody::Ok | RespBody::Cancelled => {}
            RespBody::Num(n) => f.push(Int(*n as i64)),
            RespBody::Tuples(ts) => f.push(Bytes(encode_tuples(ts))),
            RespBody::Err(msg) => f.push(Str(msg.clone())),
        }
        encode_tuple(&Tuple::new(f))
    }

    /// Decode a frame payload produced by [`Resp::encode`].
    pub fn decode(payload: &[u8]) -> Result<Resp, CodecError> {
        let t = decode_tuple(payload)?;
        let f = &t.0;
        let code = int_at(f, 0, "response code")?;
        let seq = int_at(f, 1, "response seq")? as u64;
        let op = RespOp::from_code(code)
            .ok_or_else(|| CodecError(format!("unknown response code {code}")))?;
        let what = op.name();
        let body = match op {
            RespOp::Ok => RespBody::Ok,
            RespOp::Num => RespBody::Num(int_at(f, 2, what)? as u64),
            RespOp::Tuples => RespBody::Tuples(tuples_at(f, 2, what)?),
            RespOp::Cancelled => RespBody::Cancelled,
            RespOp::Err => match f.get(2) {
                Some(Value::Str(s)) => RespBody::Err(s.clone()),
                other => {
                    return Err(CodecError(format!(
                        "{what}: expected string, got {other:?}"
                    )))
                }
            },
        };
        Ok(Resp { seq, body })
    }
}

fn int_at(f: &[Value], i: usize, what: &str) -> Result<i64, CodecError> {
    match f.get(i) {
        Some(Value::Int(v)) => Ok(*v),
        other => Err(CodecError(format!("{what}: expected int, got {other:?}"))),
    }
}

fn bytes_at<'a>(f: &'a [Value], i: usize, what: &str) -> Result<&'a [u8], CodecError> {
    match f.get(i) {
        Some(Value::Bytes(b)) => Ok(b),
        other => Err(CodecError(format!("{what}: expected bytes, got {other:?}"))),
    }
}

fn tuples_at(f: &[Value], i: usize, what: &str) -> Result<Vec<Tuple>, CodecError> {
    decode_tuples(bytes_at(f, i, what)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::field;
    use crate::tup;

    #[test]
    fn request_roundtrips() {
        let tmpl = Template::new(vec![field::val("task"), field::int()]);
        let reqs = vec![
            ReqBody::Out(vec![tup!["a", 1]]),
            ReqBody::Out(vec![tup![1], tup![2.5]]),
            ReqBody::OutDeferred(vec![tup!["d", 5], tup!["d", 6]]),
            ReqBody::Flush,
            ReqBody::Poll {
                tmpl: tmpl.clone(),
                take: true,
                max: 64,
            },
            ReqBody::Wait {
                tmpl: tmpl.clone(),
                take: false,
                max: 1,
            },
            ReqBody::Cancel { wait_seq: 9 },
            ReqBody::Len,
            ReqBody::Count(tmpl),
            ReqBody::Snapshot,
            ReqBody::Restore(vec![tup!["x"]]),
            ReqBody::TxnBegin { pid: 3 },
            ReqBody::TxnCommit {
                pid: 3,
                publish: vec![tup!["done", 1]],
                cont: Some(tup![7]),
            },
            ReqBody::TxnAbort {
                pid: 3,
                restore: vec![tup!["task", 2]],
            },
            ReqBody::ContGet { pid: 3 },
            ReqBody::ContClear { pid: 3 },
        ];
        let mut ops: Vec<ReqOp> = reqs.iter().map(ReqBody::op).collect();
        ops.dedup();
        assert_eq!(ops, ReqOp::ALL, "one body per frame, in vocabulary order");
        for (i, body) in reqs.into_iter().enumerate() {
            let req = Req {
                seq: i as u64,
                body,
            };
            let enc = req.encode();
            let dec = Req::decode(&enc).unwrap();
            assert_eq!(dec.seq, req.seq);
            assert_eq!(dec.encode(), enc);
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = vec![
            RespBody::Ok,
            RespBody::Num(17),
            RespBody::Tuples(Vec::new()),
            RespBody::Tuples(vec![tup![1], tup!["r", 2]]),
            RespBody::Cancelled,
            RespBody::Err("boom".into()),
        ];
        for (i, body) in resps.into_iter().enumerate() {
            let resp = Resp {
                seq: i as u64,
                body: body.clone(),
            };
            let dec = Resp::decode(&resp.encode()).unwrap();
            assert_eq!(dec.seq, resp.seq);
            assert_eq!(dec.body, body);
        }
    }

    #[test]
    fn garbage_is_a_typed_error() {
        assert!(Req::decode(b"not a tuple").is_err());
        assert!(Resp::decode(&[0xff; 12]).is_err());
        // A tuple of the wrong shape decodes as a tuple but not a request.
        let weird = encode_tuple(&tup!["no", "ops", "here"]);
        assert!(Req::decode(&weird).is_err());
    }

    #[test]
    fn retired_codes_are_typed_errors() {
        // Shaped like the retired frames' operands, so only the code can
        // be what rejects them.
        let tmpl = Value::Bytes(encode_template(&Template::new(vec![field::int()])));
        for code in [1, 3, 4, 5, 6, 10, 18, 21, 22, 23] {
            let frame = encode_tuple(&Tuple::new(vec![
                Value::Int(code),
                Value::Int(1),
                tmpl.clone(),
                Value::Int(8),
            ]));
            let err = Req::decode(&frame).unwrap_err();
            assert!(err.0.contains("unknown request op"), "{code}: {err:?}");
        }
        for code in [2, 4, 8] {
            let frame = encode_tuple(&Tuple::new(vec![
                Value::Int(code),
                Value::Int(1),
                Value::Int(1),
            ]));
            let err = Resp::decode(&frame).unwrap_err();
            assert!(err.0.contains("unknown response code"), "{code}: {err:?}");
        }
    }
}
