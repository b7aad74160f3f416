//! The `cudaLaunch` configuration record.
//!
//! Table I gives the launch message as: function id (4), texture offset (4),
//! parameters offset (4), number of textures (4), block dimension (12), grid
//! dimension (8), shared size (4), stream (4), kernel name (x). This module
//! carries everything but the function id and the name region.

use std::io::{self, Read, Write};

use rcuda_core::Dim3;

use crate::wire::{get_array, put_u32, Field};

/// Fixed-size portion of a `cudaLaunch` request after the function id:
/// 4+4+4+12+8+4+4 = 40 bytes; with the 4-byte id that is the `44` of
/// Table I's `x + 44` total.
pub const LAUNCH_FIXED_BYTES: u64 = 40;

/// Launch configuration shipped with `cudaLaunch`.
///
/// In CUDA 2.3 the configuration is accumulated client-side by
/// `cudaConfigureCall`/`cudaSetupArgument` and shipped in one message when
/// `cudaLaunch` fires — which is why the paper counts a single message for
/// the whole launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Byte offset of texture references within the name region (0 = none).
    pub texture_offset: u32,
    /// Byte offset of the packed kernel arguments within the name region.
    pub parameters_offset: u32,
    /// Number of texture references used by the kernel.
    pub num_textures: u32,
    /// Threads per block.
    pub block: Dim3,
    /// Blocks in the grid (CUDA 2.x grids are 2-D; z is not carried).
    pub grid: Dim3,
    /// Dynamic shared memory per block, bytes.
    pub shared_bytes: u32,
    /// Stream handle (0 = the default stream).
    pub stream: u32,
}

impl LaunchConfig {
    /// A simple 1-D launch on the default stream.
    pub fn simple(grid_x: u32, block_x: u32) -> Self {
        LaunchConfig {
            texture_offset: 0,
            parameters_offset: 0,
            num_textures: 0,
            block: Dim3::x(block_x),
            grid: Dim3::x(grid_x),
            shared_bytes: 0,
            stream: 0,
        }
    }
}

/// The fixed 40-byte portion, in Table I's field order.
impl Field for LaunchConfig {
    const WIDTH: usize = LAUNCH_FIXED_BYTES as usize;

    fn put<W: Write>(&self, w: &mut W) -> io::Result<()> {
        put_u32(w, self.texture_offset)?;
        put_u32(w, self.parameters_offset)?;
        put_u32(w, self.num_textures)?;
        w.write_all(&self.block.to_wire12())?;
        w.write_all(&self.grid.to_wire8())?;
        put_u32(w, self.shared_bytes)?;
        put_u32(w, self.stream)
    }

    fn get<R: Read>(r: &mut R) -> io::Result<Self> {
        let b: [u8; LAUNCH_FIXED_BYTES as usize] = get_array(r)?;
        let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        Ok(LaunchConfig {
            texture_offset: word(0),
            parameters_offset: word(4),
            num_textures: word(8),
            block: Dim3::from_wire12(b[12..24].try_into().expect("12 bytes")),
            grid: Dim3::from_wire8(b[24..32].try_into().expect("8 bytes")),
            shared_bytes: word(32),
            stream: word(36),
        })
    }
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig::simple(1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cfg: &LaunchConfig) -> LaunchConfig {
        let mut wire = Vec::new();
        cfg.put(&mut wire).unwrap();
        assert_eq!(wire.len(), LaunchConfig::WIDTH);
        LaunchConfig::get(&mut &wire[..]).unwrap()
    }

    #[test]
    fn fixed_portion_is_40_bytes() {
        // With the 4-byte function id this reproduces Table I's "x + 44".
        assert_eq!(LaunchConfig::WIDTH, 40);
    }

    #[test]
    fn wire_round_trip() {
        let cfg = LaunchConfig {
            texture_offset: 3,
            parameters_offset: 17,
            num_textures: 1,
            block: Dim3::new(64, 4, 1),
            grid: Dim3::xy(512, 2),
            shared_bytes: 4096,
            stream: 7,
        };
        assert_eq!(round_trip(&cfg), cfg);
    }

    #[test]
    fn grid_z_is_flattened_by_the_wire() {
        // CUDA 2.x grids are 2-D: a 3-D grid z degenerates to 1 on the wire.
        let cfg = LaunchConfig {
            grid: Dim3::new(4, 5, 6),
            ..Default::default()
        };
        let rt = round_trip(&cfg);
        assert_eq!(rt.grid, Dim3::xy(4, 5));
    }
}
