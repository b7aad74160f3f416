//! The call table: one row per wire selector, the single place every
//! per-call fact is written down.
//!
//! The paper defines the remote API as one table (Table I: one row per
//! call, its selector, what it sends and what it receives). `call_table!`
//! is that table for this implementation. A call row gives:
//!
//! * the [`FunctionId`] variant and its wire value (the first 32 bits of
//!   the request, §III), with the doc it shares with its [`Request`]
//!   variant;
//! * the request's fixed fields in wire order, each of a fixed-width wire
//!   type (`u32`, `DevicePtr`, `MemcpyKind`, `LaunchConfig`);
//! * after a `;`, the bulk payload that may follow them (Table I's `x`):
//!   `= word` when a length word, written from the payload's length,
//!   ends the fixed fields; `= size if gate(kind)` when an existing field
//!   gives the length and the payload travels only when the gate holds
//!   (the field is then an `Option`);
//! * the observability label the client and server stamp on its spans;
//! * its reply shape ([`ReplyShape`]);
//! * two independent class bits: `replay` (safe to retry after a transport
//!   fault, see `rcuda-client`'s retry module) and `journal` (`never`,
//!   `always`, or `writes_device`: kept in the failover journal, see
//!   `rcuda-client`'s failover module).
//!
//! The two memcpy rows are split `by kind`: their label and reply columns
//! list one entry per [`MemcpyKind`] (in wire order H2H, H2D, D2H, D2D) and
//! `writes_device` journals only the directions that change device memory.
//! Framing rows (the batch frame, the five handshake selectors and the
//! server's `Busy` marker) carry no request; they say whether they are
//! valid inside a session and why a request reader rejects them.
//!
//! Everything per-call is derived from the rows: [`Request`] itself, the
//! head writer behind [`Request::write`] and [`Request::head`], the reader
//! [`Request::read_with_id_codec`], the scanner's payload lengths,
//! [`FunctionId`], [`FunctionId::from_u32`], [`FunctionId::ALL`],
//! [`FunctionId::label`], [`FunctionId::body`] (summed from the field
//! widths), [`Request::function_id`], [`Request::op_name`],
//! [`Request::reply_shape`], [`Request::replayable`] and
//! [`Request::journaled`]. Adding a fixed-body call is one row here plus
//! its dispatch arm in the server. Only the positional `Init` message and
//! the shared payload tail are written by hand ([`crate::request`]).
//! Table I's own byte accounting (with the paper's `x+44` launch) stays in
//! [`crate::sizes`].

use std::io::{self, Read, Write};

use rcuda_core::{CudaError, DevicePtr};

use crate::codec::Codec;
use crate::launch::LaunchConfig;
use crate::payload::{BufferPool, Payload};
use crate::request::{read_tail, wire_carries_payload};
use crate::wire::{get_u32, put_u32, Field};

/// What a reply carries after its 4-byte result code when the call
/// succeeds (on error only the code travels). Keyed by the request, as in
/// the paper: the receiver knows what it asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyShape {
    /// Nothing: a bare result code.
    Ack,
    /// A device pointer.
    Malloc,
    /// The requested device→host bytes.
    MemcpyToHost,
    /// A length-prefixed properties blob.
    DeviceProps,
    /// A stream handle.
    StreamCreate,
    /// An event handle.
    EventCreate,
    /// Elapsed milliseconds as an `f32`.
    EventElapsed,
}

/// The body a request carries after its selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Body {
    /// Bytes of fixed-width fields.
    pub fixed: u32,
    /// Whether a bulk payload may follow the fixed fields (Table I's `x`);
    /// one of those fields gives its length.
    pub payload: bool,
}

macro_rules! call_table {
    (
        $(#[$rdoc:meta])*
        init {
            $(#[$idoc:meta])*
            $init:ident { $(#[$imdoc:meta])* $module:ident: $mt:ty }: $init_label:literal,
                reply $init_reply:ident, replay $init_replay:ident, journal never;
        }
        calls {$(
            $(#[$doc:meta])*
            $id:ident = $wire:literal $({
                $($(#[$fdoc:meta])* $f:ident: $t:ty),+
                $(; $(#[$pdoc:meta])* $pf:ident: $pt:ty = $($len:tt)+)?
            })? $(by $k:ident)?: $label:tt,
                reply $reply:tt, replay $replay:ident, journal $journal:ident;
        )*}
        framing {$(
            $(#[$fdoc2:meta])*
            $fid:ident = $fwire:literal, in_session $in:ident, $why:literal;
        )*}
    ) => {
        $(#[$rdoc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum Request {
            $(#[$idoc])*
            $init { $(#[$imdoc])* $module: $mt },
            $(
                $(#[$doc])*
                $id $({ $($(#[$fdoc])* $f: $t,)+ $($(#[$pdoc])* $pf: $pt,)? })?,
            )*
        }

        /// The remote-API function selector carried in the first 4 bytes of
        /// every request (paper §III: "the first 32 bits of the request
        /// identify the specific CUDA function called").
        ///
        /// Ids 1–6 cover the operations of Table I; higher ids are
        /// extensions this implementation adds (device queries, streams and
        /// asynchronous copies — the paper's declared future work — and an
        /// orderly-quit marker for the finalization stage).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u32)]
        pub enum FunctionId {
            $($(#[$doc])* $id = $wire,)*
            $($(#[$fdoc2])* $fid = $fwire,)*
        }

        /// The longest request head: selector plus fixed fields.
        pub(crate) const LONGEST_HEAD: usize = {
            let mut longest = 0;
            $(
                let head = 4 + call_table!(@fixed $($($t),+ $(; $($len)+)?)?);
                if head > longest {
                    longest = head;
                }
            )*
            longest
        };

        impl FunctionId {
            /// All defined ids (for exhaustive round-trip tests).
            pub const ALL: [FunctionId; [$(stringify!($id),)* $(stringify!($fid),)*].len()] =
                [$(FunctionId::$id,)* $(FunctionId::$fid,)*];

            /// Decode a wire id.
            pub fn from_u32(v: u32) -> Result<FunctionId, CudaError> {
                match v {
                    $($wire => Ok(FunctionId::$id),)*
                    $($fwire => Ok(FunctionId::$fid),)*
                    _ => Err(CudaError::InvalidValue),
                }
            }

            /// The observability label of a call with this selector; `kind`
            /// picks the direction on the two memcpy rows and is ignored
            /// elsewhere. `None` for framing selectors.
            pub fn label(self, kind: MemcpyKind) -> Option<&'static str> {
                match self {
                    $(FunctionId::$id => {
                        $(let $k = &kind;)?
                        Some(call_table!(@label [$($k)?] $label))
                    })*
                    _ => None,
                }
            }

            /// The request body that follows this selector. `None` for
            /// framing selectors, which never head a request.
            pub fn body(self) -> Option<Body> {
                match self {
                    $(FunctionId::$id => Some(Body {
                        fixed: call_table!(@fixed $($($t),+ $(; $($len)+)?)?) as u32,
                        payload: call_table!(@has $($($pf)?)?),
                    }),)*
                    _ => None,
                }
            }

            /// The length of the bulk payload announced by a complete fixed
            /// `body` (the bytes after the selector), or `None` when none
            /// follows. Rejects the same field values the reader does.
            #[allow(unused_variables)]
            #[inline]
            pub(crate) fn tail_len(self, mut body: &[u8]) -> io::Result<Option<usize>> {
                let r = &mut body;
                Ok(match self {
                    $(FunctionId::$id => {
                        $($(let $f = <$t as Field>::get(r)?;)+)?
                        call_table!(@tail_len r $($($($len)+)?)?)
                    })*
                    _ => None,
                })
            }

            /// Whether this selector may head a frame once the session is
            /// established (every call, and the batch frame). Handshake
            /// selectors and `Busy` are valid only in the opening exchange.
            pub fn in_session(self) -> bool {
                match self {
                    $(FunctionId::$fid => call_table!(@bool $in),)*
                    _ => true,
                }
            }

            /// The error a request reader raises when this selector heads
            /// what must be a single request.
            pub(crate) fn misplaced(self) -> io::Error {
                let why = match self {
                    $(FunctionId::$fid => $why,)*
                    _ => "a call selector is never misplaced",
                };
                io::Error::new(io::ErrorKind::InvalidData, why)
            }
        }

        impl Request {
            /// The label of the initialization stage, the one request
            /// without a selector.
            pub const INIT_LABEL: &'static str = $init_label;

            /// The function id this request carries on the wire (`None` for
            /// `Init`, which is identified by protocol position, not by a
            /// selector).
            pub fn function_id(&self) -> Option<FunctionId> {
                match self {
                    Request::$init { .. } => None,
                    $(Request::$id { .. } => Some(FunctionId::$id),)*
                }
            }

            /// The observability label for this request — the same names the
            /// client runtime stamps on its call spans, so client and server
            /// spans for one call aggregate into the same group. Memcpy
            /// variants are split by direction (their Table I byte
            /// accounting differs per direction).
            pub fn op_name(&self) -> &'static str {
                match self {
                    Request::$init { .. } => Self::INIT_LABEL,
                    $(call_table!(@pat $id $($k)?) => call_table!(@label [$($k)?] $label),)*
                }
            }

            /// What the reply to this request carries on success.
            pub fn reply_shape(&self) -> ReplyShape {
                match self {
                    Request::$init { .. } => ReplyShape::$init_reply,
                    $(call_table!(@pat $id $($k)?) => call_table!(@reply [$($k)?] $reply),)*
                }
            }

            /// Whether this request may be transparently replayed after a
            /// transport fault: re-executing it cannot change what the
            /// session observes.
            pub fn replayable(&self) -> bool {
                match self {
                    Request::$init { .. } => call_table!(@bool $init_replay),
                    $(Request::$id { .. } => call_table!(@bool $replay),)*
                }
            }

            /// Whether a successful call of this request shapes the device
            /// context, so a failover replay must repeat it.
            pub fn journaled(&self) -> bool {
                match self {
                    Request::$init { .. } => false,
                    $(call_table!(@pat $id $($k)?) => call_table!(@journal [$($k)?] $journal),)*
                }
            }

            /// Write the selector and the fixed fields (for `Init`, the
            /// module length word): everything before the payload.
            #[inline]
            pub(crate) fn write_head<W: Write>(&self, w: &mut W) -> io::Result<()> {
                match self {
                    Request::$init { $module } => put_u32(w, $module.len() as u32),
                    $(Request::$id $({ $($f,)+ $($pf,)? })? => {
                        put_u32(w, FunctionId::$id.as_u32())?;
                        $($(Field::put($f, w)?;)+ $(call_table!(@put_len w $pf $($len)+);)?)?
                        Ok(())
                    })*
                }
            }

            /// The bulk payload that follows the head, if any.
            #[inline]
            pub(crate) fn payload(&self) -> Option<&[u8]> {
                match self {
                    Request::$init { $module } => Some(&$module[..]),
                    $(Request::$id { $($($pf,)?)? .. } => {
                        call_table!(@payload $($($pf $($len)+)?)?)
                    })*
                }
            }

            /// Read the body of a request whose selector has already been
            /// consumed, decoding the codec's `[enc_len][bytes]` payload
            /// framing when a codec was negotiated and landing payload bytes
            /// (memcpy data, launch regions) in buffers recycled from `pool`
            /// when one is given. The returned request always holds
            /// *decompressed* payloads — dispatch and GPU code never see a
            /// compressed variant.
            pub fn read_with_id_codec<R: Read>(
                id: FunctionId,
                r: &mut R,
                pool: Option<&BufferPool>,
                codec: Option<&Codec>,
            ) -> io::Result<Request> {
                Ok(match id {
                    $(FunctionId::$id => {
                        $(
                            $(let $f = <$t as Field>::get(r)?;)+
                            $(let $pf = call_table!(@read_tail r pool codec $($len)+);)?
                        )?
                        Request::$id $({ $($f,)+ $($pf)? })?
                    })*
                    framing => return Err(framing.misplaced()),
                })
            }
        }
    };
    (@fixed $($t:ty),* $(; $($len:tt)+)?) => {
        (0 $(+ <$t as Field>::WIDTH)* $(+ call_table!(@word_width $($len)+))?)
    };
    (@word_width word) => { 4 };
    (@word_width $($len:tt)+) => { 0 };
    (@put_len $w:ident $pf:ident word) => { put_u32($w, $pf.len() as u32)? };
    (@put_len $w:ident $pf:ident $lf:ident if $gate:ident($gf:ident)) => {
        debug_assert!($pf.as_ref().is_none_or(|d| d.len() == *$lf as usize))
    };
    (@payload) => { None };
    (@payload $pf:ident word) => { Some(&$pf[..]) };
    (@payload $pf:ident $($len:tt)+) => { $pf.as_deref() };
    (@tail_len $r:ident) => { None };
    (@tail_len $r:ident word) => { Some(get_u32($r)? as usize) };
    (@tail_len $r:ident $lf:ident if $gate:ident($gf:ident)) => {
        $gate($gf).then_some($lf as usize)
    };
    (@read_tail $r:ident $pool:ident $codec:ident word) => {{
        let len = get_u32($r)?;
        read_tail($r, len as usize, $pool, $codec)?
    }};
    (@read_tail $r:ident $pool:ident $codec:ident $lf:ident if $gate:ident($gf:ident)) => {
        if $gate($gf) {
            Some(read_tail($r, $lf as usize, $pool, $codec)?)
        } else {
            None
        }
    };
    (@pat $id:ident) => { Request::$id { .. } };
    (@pat $id:ident $k:ident) => { Request::$id { $k, .. } };
    (@label [$k:ident] [$($l:literal),*]) => { [$($l),*][*$k as usize] };
    (@label [] $l:literal) => { $l };
    (@reply [$k:ident] [$($r:ident),*]) => { [$(ReplyShape::$r),*][*$k as usize] };
    (@reply [] $r:ident) => { ReplyShape::$r };
    (@journal [$($k:ident)?] never) => { false };
    (@journal [$($k:ident)?] always) => { true };
    (@journal [$k:ident] writes_device) => {
        matches!(*$k, MemcpyKind::HostToDevice | MemcpyKind::DeviceToDevice)
    };
    (@has) => { false };
    (@has $pf:ident) => { true };
    (@bool yes) => { true };
    (@bool no) => { false };
}

// Replay: pure reads, absolute writes to owned memory (every memcpy kind,
// memset) and waits may run twice; anything that allocates, frees,
// creates, destroys or enqueues work may not. The module upload is replayed
// in full by re-initialization. Journal: every successful call that shapes
// the context the failover replay must rebuild; reads and waits do not.
call_table! {
    /// A remote CUDA call as it travels client → server.
    ///
    /// `Init` is the only message without a leading function id: it is the
    /// first (and only) thing the client sends during the initialization
    /// handshake, so no selector is needed (Table I's Initialization row
    /// counts `x + 4` sent bytes — size + module only).
    init {
        /// Initialization stage: ship the GPU module (kernels + statically
        /// allocated variables).
        Init { module: Vec<u8> }: "initialization",
            reply Ack, replay yes, journal never;
    }
    calls {
        /// `cudaMalloc(size)`.
        Malloc = 1 { size: u32 }: "cudaMalloc",
            reply Malloc, replay no, journal always;
        /// `cudaFree(ptr)`.
        Free = 2 { ptr: DevicePtr }: "cudaFree",
            reply Ack, replay no, journal always;
        /// `cudaMemcpy`. For host→device, `data` carries the payload and
        /// `size` equals its length. For device→host, `data` is `None` and
        /// `size` is the number of bytes requested back.
        Memcpy = 3 {
            /// Destination address (device pointer for H2D, host cookie for D2H).
            dst: u32,
            /// Source address (host cookie for H2D, device pointer for D2H).
            src: u32,
            /// Transfer size in bytes.
            size: u32,
            /// Direction.
            kind: MemcpyKind;
            /// Payload (present only when the data flows client → server).
            data: Option<Payload> = size if wire_carries_payload(kind)
        } by kind: ["cudaMemcpyH2H", "cudaMemcpyH2D", "cudaMemcpyD2H", "cudaMemcpyD2D"],
            reply [Ack, Ack, MemcpyToHost, Ack], replay yes, journal writes_device;
        /// `cudaLaunch`. `region` is Table I's `x`: the NUL-terminated kernel
        /// name followed by the packed argument block at
        /// `config.parameters_offset`. Its length travels as a word after
        /// the configuration.
        Launch = 4 { config: LaunchConfig; region: Payload = word }: "cudaLaunch",
            reply Ack, replay no, journal always;
        /// `cudaThreadSynchronize`.
        ThreadSynchronize = 5: "cudaThreadSynchronize",
            reply Ack, replay yes, journal never;
        /// `cudaGetDeviceProperties` (extension).
        DeviceProps = 16: "cudaGetDeviceProperties",
            reply DeviceProps, replay yes, journal never;
        /// `cudaStreamCreate` (extension).
        StreamCreate = 17: "cudaStreamCreate",
            reply StreamCreate, replay no, journal always;
        /// `cudaStreamSynchronize` (extension).
        StreamSynchronize = 18 { stream: u32 }: "cudaStreamSynchronize",
            reply Ack, replay yes, journal never;
        /// `cudaStreamDestroy` (extension).
        StreamDestroy = 19 { stream: u32 }: "cudaStreamDestroy",
            reply Ack, replay no, journal always;
        /// `cudaMemcpyAsync` (extension; adds a stream field to `Memcpy`).
        MemcpyAsync = 20 {
            dst: u32,
            src: u32,
            size: u32,
            kind: MemcpyKind,
            stream: u32;
            data: Option<Payload> = size if wire_carries_payload(kind)
        } by kind: [
            "cudaMemcpyAsyncH2H", "cudaMemcpyAsyncH2D", "cudaMemcpyAsyncD2H", "cudaMemcpyAsyncD2D"
        ], reply [Ack, Ack, MemcpyToHost, Ack], replay yes, journal writes_device;
        /// `cudaMemset(dst, value, size)` (extension; `value` is the byte
        /// pattern, carried in a 4-byte field like every other scalar).
        Memset = 21 { dst: u32, value: u32, size: u32 }: "cudaMemset",
            reply Ack, replay yes, journal always;
        /// `cudaEventCreate` (extension).
        EventCreate = 22: "cudaEventCreate",
            reply EventCreate, replay no, journal always;
        /// `cudaEventRecord(event, stream)` (extension).
        EventRecord = 23 { event: u32, stream: u32 }: "cudaEventRecord",
            reply Ack, replay no, journal always;
        /// `cudaEventSynchronize(event)` (extension).
        EventSynchronize = 24 { event: u32 }: "cudaEventSynchronize",
            reply Ack, replay yes, journal never;
        /// `cudaEventElapsedTime(start, end)` (extension).
        EventElapsed = 25 { start: u32, end: u32 }: "cudaEventElapsedTime",
            reply EventElapsed, replay yes, journal never;
        /// `cudaEventDestroy(event)` (extension).
        EventDestroy = 26 { event: u32 }: "cudaEventDestroy",
            reply Ack, replay no, journal always;
        /// Finalization stage: orderly connection shutdown.
        Quit = 255: "finalization",
            reply Ack, replay no, journal never;
    }
    framing {
        /// A batch frame: one length-prefixed message packing N consecutive
        /// requests (extension; see [`crate::batch`]). Batches themselves are
        /// never nested.
        Batch = 32, in_session yes, "batch frames cannot appear inside a batch";
        /// Handshake: the client opts in to the wire codec capabilities the
        /// server advertised in its hello (extension; see [`crate::codec`]).
        /// Sent once, before the session hello; there is no reply. Like the
        /// other handshake selectors, the value is an impossible module length.
        Codec = 0xFFFF_FFFA, in_session no,
            "handshake selectors are only valid as the first post-connect message";
        /// Handshake: a *daemon* (not a client) ships a quiesced session's
        /// context snapshot to this daemon — live migration (extension; see
        /// [`crate::handshake::SessionHello::Migrate`]). Like the other
        /// handshake selectors, the value is an impossible module length.
        Migrate = 0xFFFF_FFFB, in_session no,
            "handshake selectors are only valid as the first post-connect message";
        /// Handshake: the client asks to upgrade the connection to the
        /// multiplexed framing layer (extension; see [`crate::mux`]). Like the
        /// other handshake selectors, the value is an impossible module length,
        /// so a server reading the first post-connect word can route it.
        MuxHello = 0xFFFF_FFFC, in_session no,
            "handshake selectors are only valid as the first post-connect message";
        /// Server → client load-shed marker: the daemon is over its admission
        /// limits and this connection will not be served (extension; see
        /// [`crate::handshake::ServerHello`]). The value is an impossible
        /// compute-capability major, so it is unambiguous in the 8-byte
        /// server-hello slot, and an impossible module length like the other
        /// selectors.
        Busy = 0xFFFF_FFFD, in_session no,
            "Busy is a server-to-client hello marker, never a request";
        /// Handshake: a fresh session announcing a resume token before its
        /// module upload (extension; see [`crate::handshake`]). The value is
        /// deliberately an impossible module length, so a server reading the
        /// first post-connect word can distinguish it from the paper's
        /// positional `Init` message.
        Hello = 0xFFFF_FFFE, in_session no,
            "handshake selectors are only valid as the first post-connect message";
        /// Handshake: a returning session asking to resume after a connection
        /// loss (extension; see [`crate::handshake`]). Like [`Self::Hello`],
        /// the value cannot be a module length.
        Reconnect = 0xFFFF_FFFF, in_session no,
            "handshake selectors are only valid as the first post-connect message";
    }
}

impl FunctionId {
    pub const fn as_u32(self) -> u32 {
        self as u32
    }
}

/// `cudaMemcpyKind` — the 4-byte `kind` field of the memcpy message,
/// with CUDA's numeric values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum MemcpyKind {
    HostToHost = 0,
    HostToDevice = 1,
    DeviceToHost = 2,
    DeviceToDevice = 3,
}

impl MemcpyKind {
    pub fn from_u32(v: u32) -> Result<MemcpyKind, CudaError> {
        Ok(match v {
            0 => MemcpyKind::HostToHost,
            1 => MemcpyKind::HostToDevice,
            2 => MemcpyKind::DeviceToHost,
            3 => MemcpyKind::DeviceToDevice,
            _ => return Err(CudaError::InvalidMemcpyDirection),
        })
    }

    pub const fn as_u32(self) -> u32 {
        self as u32
    }
}

impl Field for MemcpyKind {
    const WIDTH: usize = 4;

    #[inline]
    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        put_u32(w, self.as_u32())
    }

    #[inline]
    fn get<R: Read>(r: &mut R) -> io::Result<Self> {
        MemcpyKind::from_u32(get_u32(r)?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_obs::Op;

    #[test]
    fn function_ids_round_trip() {
        for id in FunctionId::ALL {
            assert_eq!(FunctionId::from_u32(id.as_u32()), Ok(id));
        }
    }

    #[test]
    fn unknown_function_id_is_invalid_value() {
        assert_eq!(FunctionId::from_u32(9000), Err(CudaError::InvalidValue));
        assert_eq!(FunctionId::from_u32(0), Err(CudaError::InvalidValue));
    }

    #[test]
    fn memcpy_kinds_use_cuda_numbering() {
        assert_eq!(MemcpyKind::HostToDevice.as_u32(), 1);
        assert_eq!(MemcpyKind::DeviceToHost.as_u32(), 2);
        for k in [
            MemcpyKind::HostToHost,
            MemcpyKind::HostToDevice,
            MemcpyKind::DeviceToHost,
            MemcpyKind::DeviceToDevice,
        ] {
            assert_eq!(MemcpyKind::from_u32(k.as_u32()), Ok(k));
        }
        assert_eq!(
            MemcpyKind::from_u32(4),
            Err(CudaError::InvalidMemcpyDirection)
        );
    }

    #[test]
    fn framing_selectors_have_no_call_columns() {
        for id in FunctionId::ALL {
            let framing = id.body().is_none();
            assert_eq!(framing, id.label(MemcpyKind::HostToDevice).is_none());
            if !id.in_session() {
                assert!(framing, "{id:?}");
                assert!(id.as_u32() > u32::MAX - 6, "{id:?} is a module length");
            }
        }
        assert!(FunctionId::Batch.in_session());
        assert!(FunctionId::Batch.body().is_none());
    }

    #[test]
    fn every_label_parses_to_an_interned_op() {
        let labels = FunctionId::ALL
            .iter()
            .flat_map(|id| (0..4).filter_map(|k| id.label(MemcpyKind::from_u32(k).unwrap())))
            .chain([Request::INIT_LABEL]);
        for label in labels {
            let (a, b) = (Op::parse(label), Op::parse(label));
            assert_eq!(a, Op::Named(label));
            let (Op::Named(a), Op::Named(b)) = (a, b) else {
                panic!("{label} parsed as {a:?}")
            };
            assert!(std::ptr::eq(a, b), "{label} interned once");
        }
    }
}
