//! Paper → code map: where each part of the ICPP 2011 paper lives in this
//! workspace.
//!
//! | Paper | Code |
//! |---|---|
//! | §I Introduction — GPU-less nodes use remote GPUs transparently | [`crate::api::CudaRuntime`] (the illusion), [`crate::client::RemoteRuntime`] / [`crate::api::LocalRuntime`] (the two realities) |
//! | §III rCUDA architecture, Fig. 1 (client/server over TCP) | [`crate::server::RcudaDaemon`] + [`crate::session::Session`]`::builder().connect(Endpoint::Tcp(..))` |
//! | §III "first 32 bits identify the function" | the call table in [`crate::proto::ids`]: one row per selector gives the [`crate::proto::FunctionId`], the [`crate::proto::Request`] variant, the label, the body bytes, the reply shape and the retry/journal class (adding a call is one row plus its reader, writer and dispatch arms) |
//! | §III Table I message breakdown | [`crate::proto::sizes::OpKind`] (accounting), [`crate::proto::Request::wire_bytes`] (realization) |
//! | §III Fig. 2, the seven execution phases | [`crate::api::run_matmul_bytes`], [`crate::api::run_fft_bytes`] |
//! | §III per-execution server process + new GPU context | one session engine, two I/O drivers: `rcuda_server`'s sans-IO `SessionMachine` (one [`crate::gpu::GpuContext`] per session) under the blocking [`crate::server::serve_connection`] (`Endpoint::Channel` / `Simulated`, mux sub-streams) and under the reactor shards of [`crate::server::RcudaDaemon`] (`Endpoint::Tcp` / `Broker`, `connect_in_process`) |
//! | §IV-A GigaE characterization, `f(n) = 8.9n − 0.3` | [`crate::netsim::GigaEModel`] |
//! | §IV-A 40GI characterization, `g(n) = 0.7n + 2.8` | [`crate::netsim::Ib40GModel`] |
//! | §IV-A ping-pong methodology (avg 250 / min 100) | [`crate::netsim::PingPong`] |
//! | §IV-A Nagle's algorithm disabled | [`crate::transport::TcpTransport`] (`TCP_NODELAY`), `GigaEModel::with_nagle` (ablation) |
//! | §IV-B case studies (MM, batched 512-pt FFT) | [`crate::core::CaseStudy`], [`crate::kernels`] |
//! | §IV-B Volkov SGEMM / MKL / FFTW | [`crate::kernels::sgemm_tiled_gpu`] / [`crate::kernels::CpuSgemm`] / [`crate::kernels::Fft`] |
//! | Table II per-call transfer times | `rcuda_model::tables::table2` |
//! | Table III / Table V per-copy payload times | `rcuda_model::tables::table3` / `table5` |
//! | §V fixed-time extraction + estimation | [`crate::model::fixed_time`], [`crate::model::estimate`] |
//! | §V cross-validation (Table IV) | [`crate::model::cross_validate`], `rcuda_model::tables::table4` |
//! | §V "measured" columns (no hardware here) | [`crate::model::SimulatedTestbed`] calibrated by [`crate::model::Calibration`] |
//! | §VI target networks (10GE/10GI/Myr/F-HT/A-HT) | [`crate::netsim::NetworkId::TARGETS`], [`crate::netsim::BandwidthModel`] |
//! | §VI-B Table VI / Figs. 5–6 | `rcuda_model::tables::table6`, `rcuda_model::figures` |
//! | §VI-B local GPU loses at m=4096 (context pre-init) | [`crate::gpu::GpuDevice::create_context`]'s `preinitialized` flag; ablation bench |
//! | §VII future work: async transfers | streams/events in [`crate::api::CudaRuntime`]; [`crate::model::estimate_async`] |
//! | §VII future work: contention | [`crate::netsim::SharedLink`] |
//! | §VII future work: multi-GPU scheduling | [`crate::server::GpuPool`] |
//! | §VII future work: "exact amount of GPUs necessary" | [`crate::model::plan_capacity`] |
//! | §VII future work: topologies | [`crate::netsim::Topology`], [`crate::netsim::TopologyNetwork`] |
//! | §VII future work: more applications | `rcuda_kernels::nbody` + the workload-agnostic planner ([`crate::model::estimate::estimate_bytes`]) |
//!
//! Regeneration entry point for every table and figure:
//! `cargo run -p rcuda-bench --bin tables`; comparisons against the paper's
//! printed values: `tables -- compare` (summarized in `EXPERIMENTS.md`).
