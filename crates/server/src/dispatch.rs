//! Request → context dispatch.
//!
//! Pure request handling: given a decoded [`Request`] and the connection's
//! [`GpuContext`], produce the [`Response`] to send back. All CUDA errors
//! are *returned to the client* as result codes, never surfaced as server
//! faults — a misbehaving application must not take the daemon down.

use rcuda_core::{CudaError, DevicePtr};
use rcuda_gpu::GpuContext;
use rcuda_proto::ids::MemcpyKind;
use rcuda_proto::payload::MAX_POOLED_BYTES;
use rcuda_proto::{Batch, BatchResponse, BufferPool, Payload, Request, Response};

/// Handle one request against the connection's context.
///
/// Returns `None` for [`Request::Quit`] (the finalization stage: no reply
/// beyond the acknowledgement is needed, the worker closes the session).
///
/// Convenience form of [`dispatch_pooled`] with no buffer pool: D2H replies
/// are staged in freshly allocated `Vec`s.
pub fn dispatch(ctx: &mut GpuContext, req: &Request) -> Option<Response> {
    dispatch_pooled(ctx, req, None)
}

/// Stage a D2H reply: through the pool (context writes straight into a
/// recycled buffer) when one is available and the size is poolable,
/// otherwise through a fresh `Vec`.
fn stage_d2h(
    ctx: &mut GpuContext,
    src: u32,
    size: u32,
    stream: Option<u32>,
    pool: Option<&BufferPool>,
) -> rcuda_core::CudaResult<Payload> {
    match pool {
        Some(pool) if size as usize <= MAX_POOLED_BYTES => {
            let mut buf = pool.get(size as usize);
            match stream {
                Some(stream) => ctx.memcpy_d2h_async_into(DevicePtr::new(src), &mut buf, stream)?,
                None => ctx.memcpy_d2h_into(DevicePtr::new(src), &mut buf)?,
            }
            Ok(Payload::Pooled(buf))
        }
        _ => match stream {
            Some(stream) => ctx
                .memcpy_d2h_async(DevicePtr::new(src), size, stream)
                .map(Payload::Owned),
            None => ctx
                .memcpy_d2h(DevicePtr::new(src), size)
                .map(Payload::Owned),
        },
    }
}

/// Handle one request against the connection's context, staging D2H reply
/// payloads in `pool` when one is provided (the worker's steady-state path:
/// device bytes land in a recycled buffer, the encoder writes it to the
/// wire, and the buffer returns to the pool when the response is dropped).
pub fn dispatch_pooled(
    ctx: &mut GpuContext,
    req: &Request,
    pool: Option<&BufferPool>,
) -> Option<Response> {
    Some(match req {
        Request::Init { module } => Response::Ack(ctx.load_module(module)),
        Request::Malloc { size } => Response::Malloc(ctx.malloc(*size)),
        Request::Free { ptr } => Response::Ack(ctx.free(*ptr)),
        Request::Memcpy {
            dst,
            src,
            size,
            kind,
            data,
        } => match kind {
            MemcpyKind::HostToDevice => match data {
                Some(payload) => Response::Ack(ctx.memcpy_h2d(DevicePtr::new(*dst), payload)),
                None => Response::Ack(Err(CudaError::InvalidValue)),
            },
            MemcpyKind::DeviceToHost => {
                Response::MemcpyToHost(stage_d2h(ctx, *src, *size, None, pool))
            }
            MemcpyKind::DeviceToDevice => {
                Response::Ack(ctx.memcpy_d2d(DevicePtr::new(*dst), DevicePtr::new(*src), *size))
            }
            // Host-to-host through a GPU service is nonsensical; reject.
            MemcpyKind::HostToHost => Response::Ack(Err(CudaError::InvalidMemcpyDirection)),
        },
        Request::Launch { config, region } => {
            // `kernel_name_str` borrows the name out of the wire region:
            // launch dispatch allocates nothing.
            let result = Request::kernel_name_str(region, config).and_then(|name| {
                let params = Request::kernel_params(region, config)?;
                ctx.launch(
                    name.trim_end_matches('\0'),
                    config.grid,
                    config.block,
                    params,
                    config.stream,
                )
            });
            Response::Ack(result)
        }
        Request::ThreadSynchronize => Response::Ack(ctx.synchronize()),
        Request::DeviceProps => {
            let blob = serde_json::to_vec(ctx.properties());
            Response::DeviceProps(blob.map_err(|_| CudaError::Unknown))
        }
        Request::StreamCreate => Response::StreamCreate(ctx.stream_create()),
        Request::StreamSynchronize { stream } => Response::Ack(ctx.stream_synchronize(*stream)),
        Request::StreamDestroy { stream } => Response::Ack(ctx.stream_destroy(*stream)),
        Request::MemcpyAsync {
            dst,
            src,
            size,
            kind,
            stream,
            data,
        } => match kind {
            MemcpyKind::HostToDevice => match data {
                Some(payload) => {
                    Response::Ack(ctx.memcpy_h2d_async(DevicePtr::new(*dst), payload, *stream))
                }
                None => Response::Ack(Err(CudaError::InvalidValue)),
            },
            MemcpyKind::DeviceToHost => {
                Response::MemcpyToHost(stage_d2h(ctx, *src, *size, Some(*stream), pool))
            }
            _ => Response::Ack(Err(CudaError::InvalidMemcpyDirection)),
        },
        Request::Memset { dst, value, size } => {
            Response::Ack(ctx.memset(DevicePtr::new(*dst), *value as u8, *size))
        }
        Request::EventCreate => Response::EventCreate(ctx.event_create()),
        Request::EventRecord { event, stream } => Response::Ack(ctx.event_record(*event, *stream)),
        Request::EventSynchronize { event } => Response::Ack(ctx.event_synchronize(*event)),
        Request::EventElapsed { start, end } => {
            Response::EventElapsed(ctx.event_elapsed_ms(*start, *end))
        }
        Request::EventDestroy { event } => Response::Ack(ctx.event_destroy(*event)),
        Request::Quit => return None,
    })
}

/// Handle a batched frame: execute every packed request in submission order
/// on the connection's context, collecting one response per request.
///
/// Individual errors do not stop the batch — each element's result code is
/// recorded and execution continues, exactly as if the calls had been issued
/// one at a time. A `Quit` inside a batch is honored gracefully: it is
/// acknowledged, the returned flag tells the worker to end the session after
/// sending the combined reply, and any elements after it are answered with
/// `InvalidValue` without being executed (the session is already over).
pub fn dispatch_batch(ctx: &mut GpuContext, batch: &Batch) -> (BatchResponse, bool) {
    dispatch_batch_pooled(ctx, batch, None)
}

/// [`dispatch_batch`] with pooled D2H staging (see [`dispatch_pooled`]).
pub fn dispatch_batch_pooled(
    ctx: &mut GpuContext,
    batch: &Batch,
    pool: Option<&BufferPool>,
) -> (BatchResponse, bool) {
    dispatch_batch_with(ctx, batch, |ctx, req| dispatch_pooled(ctx, req, pool))
}

/// The batch walk behind every `dispatch_batch*` form, with the per-element
/// dispatch supplied by the caller (the session engine wraps it with its
/// observer span and chaos hook). Elements after a Quit are answered
/// without `each` running.
pub(crate) fn dispatch_batch_with(
    ctx: &mut GpuContext,
    batch: &Batch,
    mut each: impl FnMut(&mut GpuContext, &Request) -> Option<Response>,
) -> (BatchResponse, bool) {
    let mut responses = Vec::with_capacity(batch.len());
    let mut quit = false;
    for req in batch.requests() {
        if quit {
            responses.push(Response::Ack(Err(CudaError::InvalidValue)));
            continue;
        }
        match each(ctx, req) {
            Some(resp) => responses.push(resp),
            None => {
                responses.push(Response::Ack(Ok(())));
                quit = true;
            }
        }
    }
    (BatchResponse { responses }, quit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuda_core::time::wall_clock;
    use rcuda_core::ArgPack;
    use rcuda_gpu::module::build_module;
    use rcuda_gpu::GpuDevice;
    use rcuda_proto::LaunchConfig;

    fn ctx() -> GpuContext {
        GpuDevice::tesla_c1060_functional().create_context(wall_clock(), true)
    }

    fn init(ctx: &mut GpuContext) {
        let resp = dispatch(
            ctx,
            &Request::Init {
                module: build_module(&["vec_add", "fill"], 0),
            },
        )
        .unwrap();
        assert_eq!(resp, Response::Ack(Ok(())));
    }

    #[test]
    fn malloc_free_round_trip() {
        let mut c = ctx();
        init(&mut c);
        let resp = dispatch(&mut c, &Request::Malloc { size: 1024 }).unwrap();
        let ptr = match resp {
            Response::Malloc(Ok(p)) => p,
            other => panic!("{other:?}"),
        };
        let resp = dispatch(&mut c, &Request::Free { ptr }).unwrap();
        assert_eq!(resp, Response::Ack(Ok(())));
        let resp = dispatch(&mut c, &Request::Free { ptr }).unwrap();
        assert_eq!(
            resp,
            Response::Ack(Err(CudaError::InvalidDevicePointer)),
            "double free is an error code, not a crash"
        );
    }

    #[test]
    fn memcpy_both_directions() {
        let mut c = ctx();
        init(&mut c);
        let ptr = match dispatch(&mut c, &Request::Malloc { size: 8 }).unwrap() {
            Response::Malloc(Ok(p)) => p,
            other => panic!("{other:?}"),
        };
        let resp = dispatch(
            &mut c,
            &Request::Memcpy {
                dst: ptr.addr(),
                src: 0,
                size: 8,
                kind: MemcpyKind::HostToDevice,
                data: Some(vec![1, 2, 3, 4, 5, 6, 7, 8].into()),
            },
        )
        .unwrap();
        assert_eq!(resp, Response::Ack(Ok(())));
        let resp = dispatch(
            &mut c,
            &Request::Memcpy {
                dst: 0,
                src: ptr.addr(),
                size: 8,
                kind: MemcpyKind::DeviceToHost,
                data: None,
            },
        )
        .unwrap();
        assert_eq!(
            resp,
            Response::MemcpyToHost(Ok(vec![1, 2, 3, 4, 5, 6, 7, 8].into()))
        );
    }

    /// D2H through `dispatch_pooled` stages the reply in a pooled buffer
    /// (byte-identical to the owned path) and recycles it across requests.
    #[test]
    fn pooled_d2h_stages_through_the_pool_and_recycles() {
        let mut c = ctx();
        init(&mut c);
        let pool = BufferPool::new();
        let ptr = match dispatch(&mut c, &Request::Malloc { size: 8 }).unwrap() {
            Response::Malloc(Ok(p)) => p,
            other => panic!("{other:?}"),
        };
        let h2d = Request::Memcpy {
            dst: ptr.addr(),
            src: 0,
            size: 8,
            kind: MemcpyKind::HostToDevice,
            data: Some(vec![9, 8, 7, 6, 5, 4, 3, 2].into()),
        };
        assert_eq!(
            dispatch_pooled(&mut c, &h2d, Some(&pool)).unwrap(),
            Response::Ack(Ok(()))
        );
        let d2h = Request::Memcpy {
            dst: 0,
            src: ptr.addr(),
            size: 8,
            kind: MemcpyKind::DeviceToHost,
            data: None,
        };
        for round in 0u64..3 {
            let resp = dispatch_pooled(&mut c, &d2h, Some(&pool)).unwrap();
            match resp {
                Response::MemcpyToHost(Ok(p)) => {
                    assert!(matches!(p, Payload::Pooled(_)), "staged through the pool");
                    assert_eq!(p.as_slice(), &[9, 8, 7, 6, 5, 4, 3, 2]);
                }
                other => panic!("{other:?}"),
            }
            // The response (and its pooled buffer) dropped: rounds after
            // the first are served from the recycled buffer.
            let stats = pool.stats();
            assert_eq!(stats.misses, 1, "round {round}: one cold allocation");
            assert_eq!(stats.hits, round, "round {round}");
        }
    }

    #[test]
    fn h2d_without_payload_is_invalid() {
        let mut c = ctx();
        init(&mut c);
        let resp = dispatch(
            &mut c,
            &Request::Memcpy {
                dst: 0x1000,
                src: 0,
                size: 8,
                kind: MemcpyKind::HostToDevice,
                data: None,
            },
        )
        .unwrap();
        assert_eq!(resp, Response::Ack(Err(CudaError::InvalidValue)));
    }

    #[test]
    fn launch_via_wire_form() {
        let mut c = ctx();
        init(&mut c);
        let ptr = match dispatch(&mut c, &Request::Malloc { size: 16 }).unwrap() {
            Response::Malloc(Ok(p)) => p,
            other => panic!("{other:?}"),
        };
        let args = ArgPack::new()
            .push_ptr(ptr)
            .push_u32(4)
            .push_f32(2.5)
            .into_bytes();
        let req = Request::launch("fill", &args, LaunchConfig::simple(1, 4));
        assert_eq!(dispatch(&mut c, &req).unwrap(), Response::Ack(Ok(())));
        let resp = dispatch(
            &mut c,
            &Request::Memcpy {
                dst: 0,
                src: ptr.addr(),
                size: 16,
                kind: MemcpyKind::DeviceToHost,
                data: None,
            },
        )
        .unwrap();
        let bytes = match resp {
            Response::MemcpyToHost(Ok(b)) => b,
            other => panic!("{other:?}"),
        };
        let vals: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![2.5; 4]);
    }

    #[test]
    fn unknown_kernel_is_an_error_code() {
        let mut c = ctx();
        init(&mut c);
        let req = Request::launch("not_a_kernel", &[], LaunchConfig::simple(1, 1));
        assert_eq!(
            dispatch(&mut c, &req).unwrap(),
            Response::Ack(Err(CudaError::InvalidDeviceFunction))
        );
    }

    #[test]
    fn device_props_serialize() {
        let mut c = ctx();
        init(&mut c);
        let resp = dispatch(&mut c, &Request::DeviceProps).unwrap();
        let blob = match resp {
            Response::DeviceProps(Ok(b)) => b,
            other => panic!("{other:?}"),
        };
        let props: rcuda_core::DeviceProperties = serde_json::from_slice(&blob).unwrap();
        assert_eq!(props.name, "Tesla C1060");
    }

    #[test]
    fn streams_via_dispatch() {
        let mut c = ctx();
        init(&mut c);
        let s = match dispatch(&mut c, &Request::StreamCreate).unwrap() {
            Response::StreamCreate(Ok(s)) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            dispatch(&mut c, &Request::StreamSynchronize { stream: s }).unwrap(),
            Response::Ack(Ok(()))
        );
        assert_eq!(
            dispatch(&mut c, &Request::StreamDestroy { stream: s }).unwrap(),
            Response::Ack(Ok(()))
        );
        assert_eq!(
            dispatch(&mut c, &Request::StreamSynchronize { stream: s }).unwrap(),
            Response::Ack(Err(CudaError::InvalidResourceHandle))
        );
    }

    #[test]
    fn quit_ends_the_session() {
        let mut c = ctx();
        assert!(dispatch(&mut c, &Request::Quit).is_none());
    }
}
