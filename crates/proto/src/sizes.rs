//! Canonical message-size accounting — regenerates paper Table I.
//!
//! This module is the single source of truth for how many bytes each remote
//! API call moves in each direction, with the variable-size field `x` kept
//! symbolic. The estimation model (`rcuda-model`) builds Table II on top of
//! these numbers.

use std::fmt;

/// Size of a wire field: fixed bytes, or the operation's variable payload
/// (`x` in Table I), or the payload plus a fixed part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldSize {
    Fixed(u64),
    /// The operation-dependent size, `x`.
    Var,
    /// `x + fixed`.
    VarPlus(u64),
}

impl FieldSize {
    /// Resolve against a concrete payload size.
    pub fn resolve(self, x: u64) -> u64 {
        match self {
            FieldSize::Fixed(n) => n,
            FieldSize::Var => x,
            FieldSize::VarPlus(n) => x + n,
        }
    }
}

impl fmt::Display for FieldSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldSize::Fixed(n) => write!(f, "{n}"),
            FieldSize::Var => write!(f, "x"),
            FieldSize::VarPlus(n) => write!(f, "x + {n}"),
        }
    }
}

/// One row of Table I: a field with its size in the send and/or receive
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldRow {
    pub field: &'static str,
    pub send: Option<FieldSize>,
    pub recv: Option<FieldSize>,
}

const fn send(field: &'static str, size: FieldSize) -> FieldRow {
    FieldRow {
        field,
        send: Some(size),
        recv: None,
    }
}

const fn recv(field: &'static str, size: FieldSize) -> FieldRow {
    FieldRow {
        field,
        send: None,
        recv: Some(size),
    }
}

/// The operations broken down in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Initialization stage (module upload + compute-capability handshake).
    Initialization,
    /// `cudaMalloc`.
    Malloc,
    /// `cudaMemcpy`, host → device.
    MemcpyToDevice,
    /// `cudaMemcpy`, device → host.
    MemcpyToHost,
    /// `cudaLaunch`.
    Launch,
    /// `cudaFree`.
    Free,
}

impl OpKind {
    /// Table I order.
    pub const ALL: [OpKind; 6] = [
        OpKind::Initialization,
        OpKind::Malloc,
        OpKind::MemcpyToDevice,
        OpKind::MemcpyToHost,
        OpKind::Launch,
        OpKind::Free,
    ];

    /// The operation's display name as printed in Table I.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Initialization => "Initialization",
            OpKind::Malloc => "cudaMalloc",
            OpKind::MemcpyToDevice => "cudaMemcpy (to device)",
            OpKind::MemcpyToHost => "cudaMemcpy (to host)",
            OpKind::Launch => "cudaLaunch",
            OpKind::Free => "cudaFree",
        }
    }

    /// The per-field breakdown, exactly as Table I prints it.
    pub fn fields(self) -> Vec<FieldRow> {
        use FieldSize::*;
        match self {
            OpKind::Initialization => vec![
                recv("Compute capability", Fixed(8)),
                send("Size", Fixed(4)),
                send("Module", Var),
                recv("CUDA error", Fixed(4)),
            ],
            OpKind::Malloc => vec![
                send("Function id.", Fixed(4)),
                send("Size", Fixed(4)),
                recv("CUDA error", Fixed(4)),
                recv("Device pointer", Fixed(4)),
            ],
            OpKind::MemcpyToDevice => vec![
                send("Function id.", Fixed(4)),
                send("Destination", Fixed(4)),
                send("Source", Fixed(4)),
                send("Size", Fixed(4)),
                send("Kind", Fixed(4)),
                send("Data", Var),
                recv("CUDA error", Fixed(4)),
            ],
            OpKind::MemcpyToHost => vec![
                send("Function id.", Fixed(4)),
                send("Destination", Fixed(4)),
                send("Source", Fixed(4)),
                send("Size", Fixed(4)),
                send("Kind", Fixed(4)),
                recv("CUDA error", Fixed(4)),
                recv("Data", Var),
            ],
            OpKind::Launch => vec![
                send("Function id.", Fixed(4)),
                send("Texture offset", Fixed(4)),
                send("Parameters offset", Fixed(4)),
                send("Number of textures", Fixed(4)),
                send("Block dimension", Fixed(12)),
                send("Grid dimension", Fixed(8)),
                send("Shared size", Fixed(4)),
                send("Stream", Fixed(4)),
                send("Kernel name", Var),
                recv("CUDA error", Fixed(4)),
            ],
            OpKind::Free => vec![
                send("Function id.", Fixed(4)),
                send("Device pointer", Fixed(4)),
                recv("CUDA error", Fixed(4)),
            ],
        }
    }

    /// Total sizes for this op (the Table I "Total" row), `x` symbolic.
    pub fn totals(self) -> OpSizes {
        let mut send_fixed = 0;
        let mut send_var = false;
        let mut recv_fixed = 0;
        let mut recv_var = false;
        for row in self.fields() {
            if let Some(s) = row.send {
                match s {
                    FieldSize::Fixed(n) => send_fixed += n,
                    FieldSize::Var => send_var = true,
                    FieldSize::VarPlus(n) => {
                        send_fixed += n;
                        send_var = true;
                    }
                }
            }
            if let Some(s) = row.recv {
                match s {
                    FieldSize::Fixed(n) => recv_fixed += n,
                    FieldSize::Var => recv_var = true,
                    FieldSize::VarPlus(n) => {
                        recv_fixed += n;
                        recv_var = true;
                    }
                }
            }
        }
        OpSizes {
            op: self,
            send: if send_var {
                FieldSize::VarPlus(send_fixed)
            } else {
                FieldSize::Fixed(send_fixed)
            },
            recv: if recv_var {
                FieldSize::VarPlus(recv_fixed)
            } else {
                FieldSize::Fixed(recv_fixed)
            },
        }
    }
}

/// Total send/receive sizes of one operation (Table I "Total" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSizes {
    pub op: OpKind,
    pub send: FieldSize,
    pub recv: FieldSize,
}

impl OpSizes {
    /// Concrete byte counts for a given variable payload size.
    pub fn resolve(&self, x: u64) -> (u64, u64) {
        (self.send.resolve(x), self.recv.resolve(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Total rows of Table I, verbatim.
    #[test]
    fn totals_match_table1() {
        use FieldSize::*;
        let expect = [
            (OpKind::Initialization, VarPlus(4), Fixed(12)),
            (OpKind::Malloc, Fixed(8), Fixed(8)),
            (OpKind::MemcpyToDevice, VarPlus(20), Fixed(4)),
            (OpKind::MemcpyToHost, Fixed(20), VarPlus(4)),
            (OpKind::Launch, VarPlus(44), Fixed(4)),
            (OpKind::Free, Fixed(8), Fixed(4)),
        ];
        for (op, send, recv) in expect {
            let t = op.totals();
            assert_eq!(t.send, send, "{op:?} send");
            assert_eq!(t.recv, recv, "{op:?} recv");
        }
    }

    #[test]
    fn resolve_concrete_sizes_from_table2() {
        // Table II, MM row: Initialization sends 21490 = 21486 + 4 bytes.
        let init = OpKind::Initialization.totals();
        assert_eq!(init.resolve(21_486), (21_490, 12));
        // FFT initialization: 7856 = 7852 + 4.
        assert_eq!(init.resolve(7_852), (7_856, 12));
        // MM cudaLaunch sends 52 bytes (8-byte kernel name).
        assert_eq!(OpKind::Launch.totals().resolve(8), (52, 4));
        // FFT cudaLaunch sends 58 bytes (14-byte kernel name).
        assert_eq!(OpKind::Launch.totals().resolve(14), (58, 4));
        // MM memcpy to device at m = 4096: 4·m² + 20.
        let m = 4096u64;
        assert_eq!(
            OpKind::MemcpyToDevice.totals().resolve(4 * m * m).0,
            4 * m * m + 20
        );
    }

    #[test]
    fn field_rows_sum_to_totals() {
        for op in OpKind::ALL {
            let t = op.totals();
            let x = 1000;
            let send_sum: u64 = op
                .fields()
                .iter()
                .filter_map(|r| r.send)
                .map(|s| s.resolve(x))
                .sum();
            let recv_sum: u64 = op
                .fields()
                .iter()
                .filter_map(|r| r.recv)
                .map(|s| s.resolve(x))
                .sum();
            assert_eq!(send_sum, t.send.resolve(x), "{op:?}");
            assert_eq!(recv_sum, t.recv.resolve(x), "{op:?}");
        }
    }

    /// Each Table I send total is what the matching request puts on the
    /// wire. The one documented deviation is Launch's 4-byte region-length
    /// word (see `Request::wire_bytes`).
    #[test]
    fn send_totals_match_request_wire_bytes() {
        use crate::ids::MemcpyKind;
        use crate::{LaunchConfig, Request};
        use rcuda_core::DevicePtr;
        let x = 100;
        for op in OpKind::ALL {
            let memcpy = |kind, data| Request::Memcpy {
                dst: 1,
                src: 2,
                size: x as u32,
                kind,
                data,
            };
            let (req, deviation) = match op {
                OpKind::Initialization => (
                    Request::Init {
                        module: vec![0; x as usize],
                    },
                    0,
                ),
                OpKind::Malloc => (Request::Malloc { size: x as u32 }, 0),
                OpKind::MemcpyToDevice => (
                    memcpy(MemcpyKind::HostToDevice, Some(vec![0; x as usize].into())),
                    0,
                ),
                OpKind::MemcpyToHost => (memcpy(MemcpyKind::DeviceToHost, None), 0),
                // Region: "k", its NUL, then 98 argument bytes.
                OpKind::Launch => (Request::launch("k", &[0; 98], LaunchConfig::default()), 4),
                OpKind::Free => (
                    Request::Free {
                        ptr: DevicePtr::new(1),
                    },
                    0,
                ),
            };
            assert_eq!(
                op.totals().resolve(x).0 + deviation,
                req.wire_bytes(),
                "{op:?}"
            );
        }
    }

    #[test]
    fn field_size_display() {
        assert_eq!(FieldSize::Fixed(4).to_string(), "4");
        assert_eq!(FieldSize::Var.to_string(), "x");
        assert_eq!(FieldSize::VarPlus(20).to_string(), "x + 20");
    }
}
