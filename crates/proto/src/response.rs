//! Response messages (server → client).
//!
//! "The server always sends a 32-bit result code of the operation, and
//! possibly more data depending on each particular function" (paper §III).
//! The result code always comes first; on error no further payload follows.

use std::io::{self, Read, Write};

use rcuda_core::{error::result_code, CudaError, CudaResult, DevicePtr};

use crate::codec::Codec;
use crate::ids::ReplyShape;
use crate::payload::{BufferPool, Payload};
use crate::request::Request;
use crate::wire::{get_bytes, get_u32, put_bytes, put_u32, read_payload};

/// A server reply. Which variant is legal is determined by the request that
/// elicited it; [`Response::read`] is therefore keyed on the request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Bare result code (Init, H2D memcpy, launch, free, synchronize, ...).
    Ack(CudaResult<()>),
    /// `cudaMalloc`: result code + device pointer.
    Malloc(CudaResult<DevicePtr>),
    /// Device→host `cudaMemcpy`: result code + payload.
    MemcpyToHost(CudaResult<Payload>),
    /// `cudaGetDeviceProperties`: result code + length-prefixed blob.
    DeviceProps(CudaResult<Vec<u8>>),
    /// `cudaStreamCreate`: result code + stream handle.
    StreamCreate(CudaResult<u32>),
    /// `cudaEventCreate`: result code + event handle.
    EventCreate(CudaResult<u32>),
    /// `cudaEventElapsedTime`: result code + elapsed milliseconds (f32, as
    /// the CUDA API returns it).
    EventElapsed(CudaResult<f32>),
}

impl Response {
    /// Exact number of bytes [`Response::write`] puts on the wire.
    ///
    /// For Table I operations this reproduces the Receive column (error
    /// branchs excluded): Malloc `8`, Memcpy-to-host `x+4`, everything
    /// ack-only `4`.
    pub fn wire_bytes(&self) -> u64 {
        4 + match self {
            Response::Malloc(Ok(_))
            | Response::StreamCreate(Ok(_))
            | Response::EventCreate(Ok(_))
            | Response::EventElapsed(Ok(_)) => 4,
            Response::MemcpyToHost(Ok(d)) => d.len() as u64,
            Response::DeviceProps(Ok(d)) => 4 + d.len() as u64,
            _ => 0,
        }
    }

    /// Serialize onto the wire: result code, then success payload if any
    /// (legacy framing: payloads travel raw).
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.write_codec(w, None)
    }

    /// Serialize onto the wire. With a codec, the device→host payload — the
    /// one bulk response — gains the codec's `[enc_len][bytes]` framing
    /// after the status word; every other variant is byte-identical to the
    /// legacy framing.
    pub fn write_codec<W: Write>(&self, w: &mut W, codec: Option<&Codec>) -> io::Result<()> {
        put_u32(w, result_code(&self.status()))?;
        match self {
            Response::Malloc(Ok(ptr)) => put_u32(w, ptr.addr()),
            Response::MemcpyToHost(Ok(data)) => match codec {
                Some(c) => c.write_block(w, data).map(|_| ()),
                None => put_bytes(w, data),
            },
            Response::DeviceProps(Ok(blob)) => {
                put_u32(w, blob.len() as u32)?;
                put_bytes(w, blob)
            }
            Response::StreamCreate(Ok(handle)) | Response::EventCreate(Ok(handle)) => {
                put_u32(w, *handle)
            }
            Response::EventElapsed(Ok(ms)) => put_u32(w, ms.to_bits()),
            _ => Ok(()),
        }
    }

    /// Read the response appropriate for `req`.
    ///
    /// The device→host payload length is known from the request's `size`
    /// field, exactly as in the paper's protocol (the receiver knows how many
    /// bytes it asked for).
    pub fn read<R: Read>(r: &mut R, req: &Request) -> io::Result<Response> {
        Self::read_pooled(r, req, None)
    }

    /// Like [`Response::read`], but landing device→host payload bytes in a
    /// buffer recycled from `pool` when one is given.
    pub fn read_pooled<R: Read>(
        r: &mut R,
        req: &Request,
        pool: Option<&BufferPool>,
    ) -> io::Result<Response> {
        Self::read_codec(r, req, pool, None)
    }

    /// Like [`Response::read_pooled`], additionally decoding the codec's
    /// `[enc_len][bytes]` framing on the device→host payload when a codec
    /// was negotiated. The returned response always holds *decompressed*
    /// payloads.
    pub fn read_codec<R: Read>(
        r: &mut R,
        req: &Request,
        pool: Option<&BufferPool>,
        codec: Option<&Codec>,
    ) -> io::Result<Response> {
        let shape = req.reply_shape();
        if let Err(e) = CudaError::from_code(get_u32(r)?) {
            return Ok(Response::failure(shape, e));
        }
        Ok(match shape {
            ReplyShape::Ack => Response::Ack(Ok(())),
            ReplyShape::Malloc => Response::Malloc(Ok(DevicePtr::new(get_u32(r)?))),
            ReplyShape::MemcpyToHost => {
                let (Request::Memcpy { size, .. } | Request::MemcpyAsync { size, .. }) = req else {
                    unreachable!("only the memcpy rows reply with device bytes")
                };
                Response::MemcpyToHost(Ok(match codec {
                    Some(c) => c.read_block(r, *size as usize)?,
                    None => read_payload(r, *size as usize, pool)?,
                }))
            }
            ReplyShape::DeviceProps => {
                let len = get_u32(r)? as usize;
                Response::DeviceProps(Ok(get_bytes(r, len)?))
            }
            ReplyShape::StreamCreate => Response::StreamCreate(Ok(get_u32(r)?)),
            ReplyShape::EventCreate => Response::EventCreate(Ok(get_u32(r)?)),
            ReplyShape::EventElapsed => Response::EventElapsed(Ok(f32::from_bits(get_u32(r)?))),
        })
    }

    /// The reply of a call that failed with `err`: only the code travels,
    /// wrapped in the variant its reply shape names so the reader stays in
    /// step with the request.
    pub fn failure(shape: ReplyShape, err: CudaError) -> Response {
        match shape {
            ReplyShape::Ack => Response::Ack(Err(err)),
            ReplyShape::Malloc => Response::Malloc(Err(err)),
            ReplyShape::MemcpyToHost => Response::MemcpyToHost(Err(err)),
            ReplyShape::DeviceProps => Response::DeviceProps(Err(err)),
            ReplyShape::StreamCreate => Response::StreamCreate(Err(err)),
            ReplyShape::EventCreate => Response::EventCreate(Err(err)),
            ReplyShape::EventElapsed => Response::EventElapsed(Err(err)),
        }
    }

    /// The result code carried by any variant, by reference — the batch
    /// drain's "did anything fail" check without cloning payloads.
    pub fn status(&self) -> CudaResult<()> {
        let failed = match self {
            Response::Ack(r) => r.as_ref().err(),
            Response::Malloc(r) => r.as_ref().err(),
            Response::MemcpyToHost(r) => r.as_ref().err(),
            Response::DeviceProps(r) => r.as_ref().err(),
            Response::StreamCreate(r) => r.as_ref().err(),
            Response::EventCreate(r) => r.as_ref().err(),
            Response::EventElapsed(r) => r.as_ref().err(),
        };
        match failed {
            Some(e) => Err(*e),
            None => Ok(()),
        }
    }

    /// Unwrap as a bare acknowledgement.
    pub fn into_ack(self) -> CudaResult<()> {
        match self {
            Response::Ack(r) => r,
            other => unexpected(other),
        }
    }

    /// Unwrap as a `cudaMalloc` reply.
    pub fn into_malloc(self) -> CudaResult<DevicePtr> {
        match self {
            Response::Malloc(r) => r,
            other => unexpected(other),
        }
    }

    /// Unwrap as a device→host memcpy reply, materializing an owned `Vec`
    /// (free when the payload is owned, one copy when pooled).
    pub fn into_memcpy_to_host(self) -> CudaResult<Vec<u8>> {
        self.into_memcpy_payload().map(Payload::into_vec)
    }

    /// Unwrap as a device→host memcpy reply without forcing a `Vec`.
    pub fn into_memcpy_payload(self) -> CudaResult<Payload> {
        match self {
            Response::MemcpyToHost(r) => r,
            other => unexpected(other),
        }
    }
}

fn unexpected<T>(resp: Response) -> CudaResult<T> {
    debug_assert!(false, "protocol desync: unexpected response {resp:?}");
    Err(CudaError::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MemcpyKind;
    use std::io::Cursor;

    fn round_trip(resp: &Response, req: &Request) -> Response {
        let mut buf = Vec::new();
        resp.write(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, resp.wire_bytes(), "{resp:?}");
        Response::read(&mut Cursor::new(&buf), req).unwrap()
    }

    #[test]
    fn ack_round_trip_and_size() {
        let req = Request::Free {
            ptr: DevicePtr::new(8),
        };
        let ok = Response::Ack(Ok(()));
        assert_eq!(round_trip(&ok, &req), ok);
        assert_eq!(ok.wire_bytes(), 4); // Table I: cudaFree receive = 4

        let err = Response::Ack(Err(CudaError::InvalidDevicePointer));
        assert_eq!(round_trip(&err, &req), err);
    }

    #[test]
    fn malloc_round_trip_and_size() {
        let req = Request::Malloc { size: 16 };
        let ok = Response::Malloc(Ok(DevicePtr::new(0x40)));
        assert_eq!(round_trip(&ok, &req), ok);
        assert_eq!(ok.wire_bytes(), 8); // Table I: cudaMalloc receive = 8

        let err = Response::Malloc(Err(CudaError::MemoryAllocation));
        assert_eq!(round_trip(&err, &req), err);
        assert_eq!(err.wire_bytes(), 4);
    }

    #[test]
    fn memcpy_to_host_round_trip_and_size() {
        let req = Request::Memcpy {
            dst: 0,
            src: 0x40,
            size: 6,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        let ok = Response::MemcpyToHost(Ok(vec![1, 2, 3, 4, 5, 6].into()));
        assert_eq!(round_trip(&ok, &req), ok);
        assert_eq!(ok.wire_bytes(), 10); // x + 4

        let err = Response::MemcpyToHost(Err(CudaError::InvalidDevicePointer));
        assert_eq!(round_trip(&err, &req), err);
    }

    #[test]
    fn codec_framing_round_trips_d2h_payload() {
        use crate::codec::{Codec, CodecMode};
        use crate::payload::BufferPool;
        let pool = BufferPool::new();
        let codec = Codec::with_mode(pool.clone(), CodecMode::Always);
        let data = vec![3u8; 200_000]; // compressible
        let req = Request::Memcpy {
            dst: 0,
            src: 0x40,
            size: data.len() as u32,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        let resp = Response::MemcpyToHost(Ok(data.into()));
        let mut wire = Vec::new();
        resp.write_codec(&mut wire, Some(&codec)).unwrap();
        assert!(
            (wire.len() as u64) < resp.wire_bytes(),
            "compressible D2H shrinks on the wire"
        );
        let back =
            Response::read_codec(&mut Cursor::new(&wire), &req, Some(&pool), Some(&codec)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn h2d_memcpy_gets_plain_ack() {
        let req = Request::Memcpy {
            dst: 0x40,
            src: 0,
            size: 2,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![1, 2].into()),
        };
        let ok = Response::Ack(Ok(()));
        assert_eq!(round_trip(&ok, &req), ok); // Table I: to-device receive = 4
    }

    #[test]
    fn device_props_round_trip() {
        let req = Request::DeviceProps;
        let ok = Response::DeviceProps(Ok(b"props-blob".to_vec()));
        assert_eq!(round_trip(&ok, &req), ok);
        let err = Response::DeviceProps(Err(CudaError::NoDevice));
        assert_eq!(round_trip(&err, &req), err);
    }

    #[test]
    fn event_create_round_trip() {
        let req = Request::EventCreate;
        let ok = Response::EventCreate(Ok(3));
        assert_eq!(round_trip(&ok, &req), ok);
        assert_eq!(ok.wire_bytes(), 8);
        let err = Response::EventCreate(Err(CudaError::Unknown));
        assert_eq!(round_trip(&err, &req), err);
    }

    #[test]
    fn event_elapsed_round_trip_preserves_f32_bits() {
        let req = Request::EventElapsed { start: 1, end: 2 };
        for ms in [0.0f32, 1.5, 1234.567, f32::MIN_POSITIVE] {
            let ok = Response::EventElapsed(Ok(ms));
            assert_eq!(round_trip(&ok, &req), ok, "{ms}");
        }
        let err = Response::EventElapsed(Err(CudaError::NotReady));
        assert_eq!(round_trip(&err, &req), err);
    }

    #[test]
    fn stream_create_round_trip() {
        let req = Request::StreamCreate;
        let ok = Response::StreamCreate(Ok(42));
        assert_eq!(round_trip(&ok, &req), ok);
        let err = Response::StreamCreate(Err(CudaError::InitializationError));
        assert_eq!(round_trip(&err, &req), err);
    }

    #[test]
    fn async_d2h_reads_payload() {
        let req = Request::MemcpyAsync {
            dst: 0,
            src: 0x40,
            size: 3,
            kind: MemcpyKind::DeviceToHost,
            stream: 1,
            data: None,
        };
        let ok = Response::MemcpyToHost(Ok(vec![7, 8, 9].into()));
        assert_eq!(round_trip(&ok, &req), ok);
    }

    #[test]
    fn unwrap_helpers() {
        assert!(Response::Ack(Ok(())).into_ack().is_ok());
        assert_eq!(
            Response::Malloc(Ok(DevicePtr::new(1))).into_malloc(),
            Ok(DevicePtr::new(1))
        );
        assert_eq!(
            Response::MemcpyToHost(Ok(vec![1].into())).into_memcpy_to_host(),
            Ok(vec![1])
        );
    }
}
