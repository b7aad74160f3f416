//! Request messages (client → server), field-for-field per Table I.

use std::io::{self, Read, Write};

use rcuda_core::{CudaError, DevicePtr};

use crate::codec::Codec;
use crate::ids::{FunctionId, MemcpyKind};
use crate::launch::{LaunchConfig, LAUNCH_FIXED_BYTES};
use crate::payload::{BufferPool, Payload};
use crate::wire::{get_array, get_bytes, get_u32, put_bytes, put_u32, read_payload};

/// A remote CUDA call as it travels client → server.
///
/// `Init` is the only message without a leading function id: it is the first
/// (and only) thing the client sends during the initialization handshake, so
/// no selector is needed (Table I's Initialization row counts `x + 4` sent
/// bytes — size + module only).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Initialization stage: ship the GPU module (kernels + statically
    /// allocated variables).
    Init { module: Vec<u8> },
    /// `cudaMalloc(size)`.
    Malloc { size: u32 },
    /// `cudaFree(ptr)`.
    Free { ptr: DevicePtr },
    /// `cudaMemcpy`. For host→device, `data` carries the payload and `size`
    /// equals its length. For device→host, `data` is `None` and `size` is
    /// the number of bytes requested back.
    Memcpy {
        /// Destination address (device pointer for H2D, host cookie for D2H).
        dst: u32,
        /// Source address (host cookie for H2D, device pointer for D2H).
        src: u32,
        /// Transfer size in bytes.
        size: u32,
        /// Direction.
        kind: MemcpyKind,
        /// Payload (present only when the data flows client → server).
        data: Option<Payload>,
    },
    /// `cudaLaunch`. `region` is Table I's `x`: the NUL-terminated kernel
    /// name followed by the packed argument block at
    /// `config.parameters_offset`.
    Launch {
        config: LaunchConfig,
        region: Payload,
    },
    /// `cudaThreadSynchronize`.
    ThreadSynchronize,
    /// `cudaGetDeviceProperties` (extension).
    DeviceProps,
    /// `cudaStreamCreate` (extension).
    StreamCreate,
    /// `cudaStreamSynchronize` (extension).
    StreamSynchronize { stream: u32 },
    /// `cudaStreamDestroy` (extension).
    StreamDestroy { stream: u32 },
    /// `cudaMemcpyAsync` (extension; adds a stream field to `Memcpy`).
    MemcpyAsync {
        dst: u32,
        src: u32,
        size: u32,
        kind: MemcpyKind,
        stream: u32,
        data: Option<Payload>,
    },
    /// `cudaMemset(dst, value, size)` (extension; `value` is the byte
    /// pattern, carried in a 4-byte field like every other scalar).
    Memset { dst: u32, value: u32, size: u32 },
    /// `cudaEventCreate` (extension).
    EventCreate,
    /// `cudaEventRecord(event, stream)` (extension).
    EventRecord { event: u32, stream: u32 },
    /// `cudaEventSynchronize(event)` (extension).
    EventSynchronize { event: u32 },
    /// `cudaEventElapsedTime(start, end)` (extension).
    EventElapsed { start: u32, end: u32 },
    /// `cudaEventDestroy(event)` (extension).
    EventDestroy { event: u32 },
    /// Finalization stage: orderly connection shutdown.
    Quit,
}

impl Request {
    /// Build a `cudaLaunch` request from a kernel name and packed argument
    /// bytes, filling in the name-region offsets.
    pub fn launch(name: &str, params: &[u8], mut config: LaunchConfig) -> Request {
        let mut region = Vec::with_capacity(name.len() + 1 + params.len());
        region.extend_from_slice(name.as_bytes());
        if !name.ends_with('\0') {
            region.push(0);
        }
        config.parameters_offset = region.len() as u32;
        region.extend_from_slice(params);
        Request::Launch {
            config,
            region: region.into(),
        }
    }

    /// Like [`Request::launch`] but staging the name region in a pooled
    /// buffer, so a steady-state launch loop allocates nothing.
    pub fn launch_pooled(
        name: &str,
        params: &[u8],
        mut config: LaunchConfig,
        pool: &BufferPool,
    ) -> Request {
        let nul = usize::from(!name.ends_with('\0'));
        let mut region = pool.get(name.len() + nul + params.len());
        region[..name.len()].copy_from_slice(name.as_bytes());
        if nul == 1 {
            region[name.len()] = 0;
        }
        config.parameters_offset = (name.len() + nul) as u32;
        region[name.len() + nul..].copy_from_slice(params);
        Request::Launch {
            config,
            region: region.into(),
        }
    }

    /// The kernel name carried by a `Launch` request (up to the first NUL),
    /// borrowed straight out of the region — no allocation.
    pub fn kernel_name_str<'a>(
        region: &'a [u8],
        config: &LaunchConfig,
    ) -> Result<&'a str, CudaError> {
        let name_end = region
            .iter()
            .take(config.parameters_offset as usize)
            .position(|&b| b == 0)
            .unwrap_or(config.parameters_offset as usize);
        std::str::from_utf8(&region[..name_end]).map_err(|_| CudaError::InvalidValue)
    }

    /// The kernel name carried by a `Launch` request, as an owned `String`.
    pub fn kernel_name(region: &[u8], config: &LaunchConfig) -> Result<String, CudaError> {
        Self::kernel_name_str(region, config).map(str::to_owned)
    }

    /// The packed argument bytes carried by a `Launch` request.
    pub fn kernel_params<'a>(
        region: &'a [u8],
        config: &LaunchConfig,
    ) -> Result<&'a [u8], CudaError> {
        region
            .get(config.parameters_offset as usize..)
            .ok_or(CudaError::InvalidValue)
    }

    /// Exact number of bytes [`Request::write`] puts on the wire.
    ///
    /// For the Table I operations this reproduces the paper's Send column —
    /// Init `x+4`, Malloc `8`, Memcpy-to-device `x+20`, Memcpy-to-host `20`,
    /// Free `8` — with one deviation: our `Launch` realization prefixes the
    /// name region with a 4-byte length (so `x+48` instead of `x+44`),
    /// because unlike the original C implementation we do not parse the
    /// region incrementally off the socket. The canonical `x+44` accounting
    /// used to regenerate Table I lives in [`crate::sizes`].
    pub fn wire_bytes(&self) -> u64 {
        let payload = match self {
            Request::Init { module } => module.len(),
            Request::Memcpy { data, .. } | Request::MemcpyAsync { data, .. } => {
                data.as_ref().map_or(0, |d| d.len())
            }
            Request::Launch { region, .. } => region.len(),
            _ => 0,
        };
        self.head_bytes() + payload as u64
    }

    /// Serialize onto the wire (legacy framing: payloads travel raw).
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.write_codec(w, None)
    }

    /// Serialize onto the wire. With a codec, bulk payloads (memcpy data,
    /// launch regions) gain the codec's `[enc_len][bytes]` framing and are
    /// compressed when the adaptive policy says so; everything else —
    /// selectors, scalar fields, the module upload — is byte-identical to
    /// the legacy framing. Compression happens here, at write time, never
    /// earlier: deferred/batched requests hold raw payloads, so
    /// [`Request::wire_bytes`] keeps its logical Table I accounting.
    pub fn write_codec<W: Write>(&self, w: &mut W, codec: Option<&Codec>) -> io::Result<()> {
        if let Some(id) = self.function_id() {
            put_u32(w, id.as_u32())?;
        }
        match self {
            Request::Init { module } => {
                put_u32(w, module.len() as u32)?;
                put_bytes(w, module)?;
            }
            Request::Malloc { size } => put_u32(w, *size)?,
            Request::Free { ptr } => put_u32(w, ptr.addr())?,
            Request::Memcpy {
                dst,
                src,
                size,
                kind,
                data,
            } => {
                put_u32(w, *dst)?;
                put_u32(w, *src)?;
                put_u32(w, *size)?;
                put_u32(w, kind.as_u32())?;
                if let Some(d) = data {
                    debug_assert_eq!(d.len() as u32, *size);
                    match codec {
                        Some(c) => {
                            c.write_block(w, d)?;
                        }
                        None => put_bytes(w, d)?,
                    }
                }
            }
            Request::Launch { config, region } => {
                put_bytes(w, &config.to_wire())?;
                put_u32(w, region.len() as u32)?;
                match codec {
                    Some(c) => {
                        c.write_block(w, region)?;
                    }
                    None => put_bytes(w, region)?,
                }
            }
            Request::ThreadSynchronize
            | Request::DeviceProps
            | Request::StreamCreate
            | Request::EventCreate
            | Request::Quit => {}
            Request::StreamSynchronize { stream } | Request::StreamDestroy { stream } => {
                put_u32(w, *stream)?;
            }
            Request::Memset { dst, value, size } => {
                put_u32(w, *dst)?;
                put_u32(w, *value)?;
                put_u32(w, *size)?;
            }
            Request::EventRecord { event, stream } => {
                put_u32(w, *event)?;
                put_u32(w, *stream)?;
            }
            Request::EventSynchronize { event } | Request::EventDestroy { event } => {
                put_u32(w, *event)?;
            }
            Request::EventElapsed { start, end } => {
                put_u32(w, *start)?;
                put_u32(w, *end)?;
            }
            Request::MemcpyAsync {
                dst,
                src,
                size,
                kind,
                stream,
                data,
            } => {
                put_u32(w, *dst)?;
                put_u32(w, *src)?;
                put_u32(w, *size)?;
                put_u32(w, kind.as_u32())?;
                put_u32(w, *stream)?;
                if let Some(d) = data {
                    debug_assert_eq!(d.len() as u32, *size);
                    match codec {
                        Some(c) => {
                            c.write_block(w, d)?;
                        }
                        None => put_bytes(w, d)?,
                    }
                }
            }
        }
        Ok(())
    }

    /// Read the initialization request (the one message with no selector).
    pub fn read_init<R: Read>(r: &mut R) -> io::Result<Request> {
        let size = get_u32(r)? as usize;
        let module = get_bytes(r, size)?;
        Ok(Request::Init { module })
    }

    /// Read any post-initialization request (selector first).
    pub fn read<R: Read>(r: &mut R) -> io::Result<Request> {
        let raw = get_u32(r)?;
        let id =
            FunctionId::from_u32(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Self::read_with_id(id, r)
    }

    /// Read the body of a request whose selector has already been consumed
    /// (used by [`crate::batch::Frame::read`], which peeks at the selector to
    /// decide between a single request and a batch).
    pub fn read_with_id<R: Read>(id: FunctionId, r: &mut R) -> io::Result<Request> {
        Self::read_with_id_pooled(id, r, None)
    }

    /// Like [`Request::read_with_id`], but landing payload bytes (memcpy
    /// data, launch regions) in buffers recycled from `pool` when one is
    /// given — the server worker's zero-allocation receive path.
    pub fn read_with_id_pooled<R: Read>(
        id: FunctionId,
        r: &mut R,
        pool: Option<&BufferPool>,
    ) -> io::Result<Request> {
        Self::read_with_id_codec(id, r, pool, None)
    }

    /// Like [`Request::read_with_id_pooled`], additionally decoding the
    /// codec's `[enc_len][bytes]` payload framing when a codec was
    /// negotiated. The returned request always holds *decompressed*
    /// payloads — dispatch and GPU code never see a compressed variant.
    pub fn read_with_id_codec<R: Read>(
        id: FunctionId,
        r: &mut R,
        pool: Option<&BufferPool>,
        codec: Option<&Codec>,
    ) -> io::Result<Request> {
        Ok(match id {
            FunctionId::Malloc => Request::Malloc { size: get_u32(r)? },
            FunctionId::Free => Request::Free {
                ptr: DevicePtr::new(get_u32(r)?),
            },
            FunctionId::Memcpy => {
                let dst = get_u32(r)?;
                let src = get_u32(r)?;
                let size = get_u32(r)?;
                let kind = MemcpyKind::from_u32(get_u32(r)?)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let data = if wire_carries_payload(kind) {
                    Some(read_block_or_payload(r, size as usize, pool, codec)?)
                } else {
                    None
                };
                Request::Memcpy {
                    dst,
                    src,
                    size,
                    kind,
                    data,
                }
            }
            FunctionId::Launch => {
                let fixed: [u8; LAUNCH_FIXED_BYTES as usize] = get_array(r)?;
                let config = LaunchConfig::from_wire(fixed);
                let region_len = get_u32(r)? as usize;
                let region = read_block_or_payload(r, region_len, pool, codec)?;
                Request::Launch { config, region }
            }
            FunctionId::ThreadSynchronize => Request::ThreadSynchronize,
            FunctionId::DeviceProps => Request::DeviceProps,
            FunctionId::StreamCreate => Request::StreamCreate,
            FunctionId::StreamSynchronize => Request::StreamSynchronize {
                stream: get_u32(r)?,
            },
            FunctionId::StreamDestroy => Request::StreamDestroy {
                stream: get_u32(r)?,
            },
            FunctionId::MemcpyAsync => {
                let dst = get_u32(r)?;
                let src = get_u32(r)?;
                let size = get_u32(r)?;
                let kind = MemcpyKind::from_u32(get_u32(r)?)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let stream = get_u32(r)?;
                let data = if wire_carries_payload(kind) {
                    Some(read_block_or_payload(r, size as usize, pool, codec)?)
                } else {
                    None
                };
                Request::MemcpyAsync {
                    dst,
                    src,
                    size,
                    kind,
                    stream,
                    data,
                }
            }
            FunctionId::Memset => Request::Memset {
                dst: get_u32(r)?,
                value: get_u32(r)?,
                size: get_u32(r)?,
            },
            FunctionId::EventCreate => Request::EventCreate,
            FunctionId::EventRecord => Request::EventRecord {
                event: get_u32(r)?,
                stream: get_u32(r)?,
            },
            FunctionId::EventSynchronize => Request::EventSynchronize { event: get_u32(r)? },
            FunctionId::EventElapsed => Request::EventElapsed {
                start: get_u32(r)?,
                end: get_u32(r)?,
            },
            FunctionId::EventDestroy => Request::EventDestroy { event: get_u32(r)? },
            FunctionId::Quit => Request::Quit,
            framing => return Err(framing.misplaced()),
        })
    }
}

/// Whether a memcpy of this kind carries its payload in the *request*
/// (client → server) direction.
pub fn wire_carries_payload(kind: MemcpyKind) -> bool {
    matches!(kind, MemcpyKind::HostToDevice | MemcpyKind::HostToHost)
}

/// Read one bulk payload of logical length `raw_len`: through the codec's
/// `[enc_len][bytes]` framing on codec sessions, straight off the wire on
/// legacy ones.
fn read_block_or_payload<R: Read>(
    r: &mut R,
    raw_len: usize,
    pool: Option<&BufferPool>,
    codec: Option<&Codec>,
) -> io::Result<Payload> {
    match codec {
        Some(c) => c.read_block(r, raw_len),
        None => read_payload(r, raw_len, pool),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_core::Dim3;
    use std::io::Cursor;

    fn round_trip(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.write(&mut buf).unwrap();
        match req {
            Request::Init { .. } => Request::read_init(&mut Cursor::new(&buf)).unwrap(),
            _ => Request::read(&mut Cursor::new(&buf)).unwrap(),
        }
    }

    #[test]
    fn malloc_round_trip_and_size() {
        let req = Request::Malloc { size: 1 << 20 };
        assert_eq!(round_trip(&req), req);
        assert_eq!(req.wire_bytes(), 8); // Table I: cudaMalloc send = 8
    }

    #[test]
    fn free_round_trip_and_size() {
        let req = Request::Free {
            ptr: DevicePtr::new(0x1000),
        };
        assert_eq!(round_trip(&req), req);
        assert_eq!(req.wire_bytes(), 8); // Table I: cudaFree send = 8
    }

    #[test]
    fn memcpy_h2d_round_trip_and_size() {
        let data = vec![7u8; 100];
        let req = Request::Memcpy {
            dst: 0x2000,
            src: 0,
            size: 100,
            kind: MemcpyKind::HostToDevice,
            data: Some(data.into()),
        };
        assert_eq!(round_trip(&req), req);
        assert_eq!(req.wire_bytes(), 120); // x + 20
    }

    #[test]
    fn codec_framing_round_trips_memcpy_and_launch() {
        use crate::codec::{Codec, CodecMode};
        let pool = BufferPool::new();
        let codec = Codec::with_mode(pool.clone(), CodecMode::Always);

        let data = vec![0xEEu8; 100_000]; // compressible
        let req = Request::Memcpy {
            dst: 0x2000,
            src: 0,
            size: data.len() as u32,
            kind: MemcpyKind::HostToDevice,
            data: Some(data.into()),
        };
        let mut wire = Vec::new();
        req.write_codec(&mut wire, Some(&codec)).unwrap();
        assert!(
            (wire.len() as u64) < req.wire_bytes(),
            "compressible memcpy shrinks on the wire"
        );
        let back = Request::read_with_id_codec(
            FunctionId::Memcpy,
            &mut Cursor::new(&wire[4..]),
            Some(&pool),
            Some(&codec),
        )
        .unwrap();
        assert_eq!(back, req, "decode restores the raw payload");

        let launch = Request::launch("kern", &vec![0u8; 50_000], LaunchConfig::simple(1, 32));
        let mut wire = Vec::new();
        launch.write_codec(&mut wire, Some(&codec)).unwrap();
        assert!((wire.len() as u64) < launch.wire_bytes());
        let back = Request::read_with_id_codec(
            FunctionId::Launch,
            &mut Cursor::new(&wire[4..]),
            Some(&pool),
            Some(&codec),
        )
        .unwrap();
        assert_eq!(back, launch);
    }

    #[test]
    fn memcpy_d2h_round_trip_and_size() {
        let req = Request::Memcpy {
            dst: 0,
            src: 0x2000,
            size: 4096,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        assert_eq!(round_trip(&req), req);
        assert_eq!(req.wire_bytes(), 20); // Table I: to-host send = 20
    }

    #[test]
    fn init_round_trip_and_size() {
        let req = Request::Init {
            module: vec![0xAB; 21_486],
        };
        assert_eq!(round_trip(&req), req);
        assert_eq!(req.wire_bytes(), 21_490); // x + 4, MM module
    }

    #[test]
    fn launch_round_trip_and_helpers() {
        let cfg = LaunchConfig {
            block: Dim3::new(16, 16, 1),
            grid: Dim3::xy(256, 256),
            shared_bytes: 2048,
            ..Default::default()
        };
        let params = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let req = Request::launch("sgemmNN", &params, cfg);
        let rt = round_trip(&req);
        assert_eq!(rt, req);
        if let Request::Launch { config, region } = &rt {
            assert_eq!(Request::kernel_name(region, config).unwrap(), "sgemmNN");
            assert_eq!(Request::kernel_params(region, config).unwrap(), &params);
        } else {
            panic!("not a launch");
        }
    }

    #[test]
    fn launch_wire_bytes_is_region_plus_44_plus_len_prefix() {
        // The in-memory accounting view (`x + 44`, Table I) counts the
        // region and the 44 fixed bytes; our realization adds a 4-byte
        // region-length prefix which `wire_bytes` must include so the
        // accounting matches what actually hits the wire.
        let req = Request::launch("k", &[], LaunchConfig::default());
        let mut buf = Vec::new();
        req.write(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, req.wire_bytes());
    }

    #[test]
    fn wire_bytes_matches_encoded_length_for_all_variants() {
        let reqs = vec![
            Request::Init {
                module: vec![1, 2, 3],
            },
            Request::Malloc { size: 64 },
            Request::Free {
                ptr: DevicePtr::new(4),
            },
            Request::Memcpy {
                dst: 1,
                src: 2,
                size: 3,
                kind: MemcpyKind::HostToDevice,
                data: Some(vec![9, 9, 9].into()),
            },
            Request::Memcpy {
                dst: 1,
                src: 2,
                size: 3,
                kind: MemcpyKind::DeviceToHost,
                data: None,
            },
            Request::launch("fft512_batch", &[0; 12], LaunchConfig::default()),
            Request::ThreadSynchronize,
            Request::DeviceProps,
            Request::StreamCreate,
            Request::StreamSynchronize { stream: 1 },
            Request::StreamDestroy { stream: 1 },
            Request::MemcpyAsync {
                dst: 1,
                src: 2,
                size: 2,
                kind: MemcpyKind::HostToDevice,
                stream: 3,
                data: Some(vec![1, 2].into()),
            },
            Request::Memset {
                dst: 1,
                value: 0xAB,
                size: 64,
            },
            Request::EventCreate,
            Request::EventRecord {
                event: 1,
                stream: 0,
            },
            Request::EventSynchronize { event: 1 },
            Request::EventElapsed { start: 1, end: 2 },
            Request::EventDestroy { event: 1 },
            Request::Quit,
        ];
        for req in reqs {
            let mut buf = Vec::new();
            req.write(&mut buf).unwrap();
            assert_eq!(buf.len() as u64, req.wire_bytes(), "{req:?}");
        }
    }

    #[test]
    fn op_names_match_client_labels_and_split_by_direction() {
        assert_eq!(Request::Init { module: vec![] }.op_name(), "initialization");
        assert_eq!(Request::Malloc { size: 1 }.op_name(), "cudaMalloc");
        assert_eq!(Request::Quit.op_name(), "finalization");
        let h2d = Request::Memcpy {
            dst: 0,
            src: 0,
            size: 0,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![].into()),
        };
        assert_eq!(h2d.op_name(), "cudaMemcpyH2D");
        let d2h = Request::Memcpy {
            dst: 0,
            src: 0,
            size: 0,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        assert_eq!(d2h.op_name(), "cudaMemcpyD2H");
    }

    #[test]
    fn bad_function_id_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 9999).unwrap();
        assert!(Request::read(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn bad_memcpy_kind_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, FunctionId::Memcpy.as_u32()).unwrap();
        for v in [0u32, 0, 4, 77] {
            put_u32(&mut buf, v).unwrap();
        }
        assert!(Request::read(&mut Cursor::new(&buf)).is_err());
    }
}
