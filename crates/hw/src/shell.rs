//! The fixed HW-shell: PCIe DMA models, the FPP/ICAP reconfiguration model
//! and device-DRAM graph residency (§IV-B, Fig. 11, §V-B).

/// Graph-delta staging buffers carved out of device DRAM: two, so one
/// delta can land over DMA-main while the previous batch occupies the
/// fabric (§V-B's incremental-read path, double-buffered). Serving layers
/// derive their per-board staging depth (`DELTA_BUFFERS - 1` requests
/// ingested-but-not-computing) from this constant.
pub const DELTA_BUFFERS: usize = 2;

/// PCIe link model shared by DMA-main (descriptor-driven scatter-gather
/// bulk transfers) and DMA-bypass (BAR/MMIO-style small transfers).
/// Uploads and subgraph hand-offs share one DMA engine pair, so a board
/// has a single PCIe transfer in flight at a time; the engine runs
/// independently of the fabric, which is what staged serving pipelines
/// exploit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Effective link bandwidth in bytes/second (PCIe 4.0 ×16 ≈ 25 GB/s
    /// after protocol overhead).
    pub bandwidth: f64,
    /// Fixed per-transfer latency in seconds (descriptor fetch / doorbell).
    pub base_latency: f64,
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel {
            bandwidth: 25.0e9,
            base_latency: 10.0e-6,
        }
    }
}

impl PcieModel {
    /// Seconds to move `bytes` across the link.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.base_latency + bytes as f64 / self.bandwidth
    }
}

/// Board-to-board PCIe switch model: the path a graph takes when it
/// migrates between boards' DRAM instead of re-crossing the host link.
///
/// The evaluation chassis hangs every VPK180 off one PCIe switch; the
/// host uplink runs at Gen4 ×16 (≈ 25 GB/s effective, [`PcieModel`]),
/// while peer-to-peer DMA between boards stays inside the Gen5 switch
/// fabric and skips the host-DRAM bounce entirely — roughly twice the
/// effective bandwidth at lower doorbell latency. A cross-board transfer
/// occupies **both** endpoints' DMA engines for its duration (one reads
/// out of device DRAM, one writes in), which is what serving layers price
/// when they stage a migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieSwitchModel {
    /// Effective peer-to-peer bandwidth in bytes/second (Gen5 switch
    /// fabric, no host-memory staging).
    pub bandwidth: f64,
    /// Fixed per-transfer latency in seconds (peer doorbell + descriptor
    /// exchange, cheaper than a host round trip).
    pub base_latency: f64,
}

impl Default for PcieSwitchModel {
    fn default() -> Self {
        PcieSwitchModel {
            bandwidth: 50.0e9,
            base_latency: 5.0e-6,
        }
    }
}

impl PcieSwitchModel {
    /// Seconds to move `bytes` board-to-board through the switch.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.base_latency + bytes as f64 / self.bandwidth
    }
}

/// Splits a peer-sourced graph ingest into its `(switch_bytes,
/// host_bytes)` legs: of a `total_bytes` graph with `resident_bytes`
/// already on the destination, the prefix the peer holds (`peer_bytes`)
/// crosses the switch and only growth the peer never saw crosses the
/// host link. Locally resident bytes never move, and the two legs
/// partition the growth delta exactly. The single source of this
/// arithmetic: the serving simulator's board pool prices every migration
/// through it.
pub fn peer_transfer_split(total_bytes: u64, peer_bytes: u64, resident_bytes: u64) -> (u64, u64) {
    let switch_bytes = peer_bytes.min(total_bytes).saturating_sub(resident_bytes);
    let host_bytes = total_bytes.saturating_sub(peer_bytes.max(resident_bytes));
    (switch_bytes, host_bytes)
}

/// Which reconfigurable region(s) a bitstream update touches.
///
/// "Because UPE and SCR reside in separate reconfigurable regions, only the
/// region that needs to change could be reprogrammed, roughly halving the
/// reconfiguration overhead" (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigScope {
    /// Nothing changed; no reconfiguration issued.
    None,
    /// Only the UPE region.
    UpeOnly,
    /// Only the SCR region.
    ScrOnly,
    /// Both regions.
    Both,
}

/// FPP/ICAP partial-reconfiguration timing (§V-B): "the reconfiguration
/// process takes ∼230 ms, including 3 ms to load the bitstream from DRAM and
/// 225 ms for FPGA reconfiguration through the Xilinx ICAP IP operating at
/// 100 MHz".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcapModel {
    /// Bitstream load from device DRAM, seconds (per region).
    pub load_secs: f64,
    /// Full-device ICAP reprogram time, seconds (both regions).
    pub reprogram_secs: f64,
}

impl Default for IcapModel {
    fn default() -> Self {
        IcapModel {
            load_secs: 0.003,
            reprogram_secs: 0.225,
        }
    }
}

impl IcapModel {
    /// Seconds to apply a reconfiguration of the given scope.
    pub fn reconfig_secs(&self, scope: ReconfigScope) -> f64 {
        match scope {
            ReconfigScope::None => 0.0,
            // One region is roughly half the reprogram plus its load.
            ReconfigScope::UpeOnly | ReconfigScope::ScrOnly => {
                self.load_secs + self.reprogram_secs / 2.0
            }
            ReconfigScope::Both => 2.0 * self.load_secs + self.reprogram_secs,
        }
    }
}

/// Device DRAM properties and graph residency.
///
/// "Unlike the GPU, which must deallocate the graph datasets during the
/// model inference process, AutoGNN can store the previous graph data within
/// device memory. This enables AutoGNN to only read the updated portions of
/// the graph from the host" (§V-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Peak device-DRAM bandwidth in bytes/second (LPDDR4 class on the
    /// Versal evaluation board).
    pub bandwidth: f64,
    /// Capacity in bytes; bitstream staging (≈ 1 GB for the twenty 50 MB
    /// bitstreams, §V-B) is already carved out.
    pub capacity: u64,
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel {
            bandwidth: 102.4e9,
            capacity: 15 << 30,
        }
    }
}

/// The HW-shell: PCIe + ICAP + DRAM state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HwShell {
    /// PCIe link model (host uplink).
    pub pcie: PcieModel,
    /// Board-to-board PCIe switch model (peer DMA path).
    pub pcie_switch: PcieSwitchModel,
    /// Reconfiguration timing model.
    pub icap: IcapModel,
    /// Device DRAM model.
    pub dram: DramModel,
    resident_graph_bytes: u64,
}

impl HwShell {
    /// Creates a shell with default models and no resident graph.
    pub fn new() -> Self {
        HwShell::default()
    }

    /// Bytes of graph currently resident in device DRAM.
    pub fn resident_graph_bytes(&self) -> u64 {
        self.resident_graph_bytes
    }

    /// Uploads a graph via DMA-main, transferring only the delta beyond what
    /// is already resident. Returns the transfer time in seconds and the
    /// bytes actually moved.
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds DRAM capacity.
    pub fn upload_graph(&mut self, total_bytes: u64) -> (f64, u64) {
        assert!(
            total_bytes <= self.dram.capacity,
            "graph of {total_bytes} bytes exceeds device DRAM capacity"
        );
        let delta = total_bytes.saturating_sub(self.resident_graph_bytes);
        self.resident_graph_bytes = self.resident_graph_bytes.max(total_bytes);
        (self.pcie.transfer_secs(delta), delta)
    }

    /// Drops residency (e.g. switching to an unrelated graph).
    pub fn evict_graph(&mut self) {
        self.resident_graph_bytes = 0;
    }

    /// Sends the preprocessed subgraph to the GPU via DMA-bypass.
    pub fn download_subgraph(&self, bytes: u64) -> f64 {
        self.pcie.transfer_secs(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_zero_bytes_is_free() {
        assert_eq!(PcieModel::default().transfer_secs(0), 0.0);
    }

    #[test]
    fn pcie_time_scales_with_bytes() {
        let pcie = PcieModel::default();
        let one_gb = pcie.transfer_secs(1 << 30);
        // ~43 ms for 1 GiB at 25 GB/s.
        assert!(one_gb > 0.04 && one_gb < 0.05, "got {one_gb}");
    }

    #[test]
    fn icap_matches_paper_230ms() {
        let icap = IcapModel::default();
        let both = icap.reconfig_secs(ReconfigScope::Both);
        assert!((both - 0.231).abs() < 1e-9, "~230 ms total, got {both}");
        let single = icap.reconfig_secs(ReconfigScope::UpeOnly);
        assert!(single < both / 1.9, "single region roughly halves cost");
        assert_eq!(icap.reconfig_secs(ReconfigScope::None), 0.0);
    }

    #[test]
    fn shell_uploads_only_deltas() {
        let mut shell = HwShell::new();
        let (t1, moved1) = shell.upload_graph(1_000_000);
        assert_eq!(moved1, 1_000_000);
        assert!(t1 > 0.0);
        // Growing graph: only the new edges cross PCIe.
        let (_, moved2) = shell.upload_graph(1_100_000);
        assert_eq!(moved2, 100_000);
        // Same size again: nothing to move.
        let (t3, moved3) = shell.upload_graph(1_100_000);
        assert_eq!(moved3, 0);
        assert_eq!(t3, 0.0);
    }

    #[test]
    fn eviction_forces_full_upload() {
        let mut shell = HwShell::new();
        shell.upload_graph(500_000);
        shell.evict_graph();
        let (_, moved) = shell.upload_graph(500_000);
        assert_eq!(moved, 500_000);
    }

    #[test]
    #[should_panic(expected = "exceeds device DRAM capacity")]
    fn oversized_graph_panics() {
        HwShell::new().upload_graph(u64::MAX);
    }

    #[test]
    fn switch_beats_the_host_link_per_byte() {
        let host = PcieModel::default();
        let switch = PcieSwitchModel::default();
        assert_eq!(switch.transfer_secs(0), 0.0);
        let bytes = 1u64 << 30;
        assert!(
            switch.transfer_secs(bytes) < host.transfer_secs(bytes) / 1.8,
            "peer DMA must roughly halve the transfer time"
        );
    }

    #[test]
    fn peer_upload_splits_bytes_between_switch_and_host() {
        // A peer holds 800k of a graph that has since grown to 1M: the
        // warm prefix crosses the switch, only the growth hits the host.
        assert_eq!(
            peer_transfer_split(1_000_000, 800_000, 0),
            (800_000, 200_000)
        );
        // Fully resident: nothing moves on either path.
        assert_eq!(peer_transfer_split(1_000_000, 800_000, 1_000_000), (0, 0));
    }

    #[test]
    fn peer_upload_never_removes_locally_resident_bytes() {
        // Peer holds 900k of a 1M graph; the local 600k stay put, the
        // switch tops up to the peer's 900k, the host supplies the rest.
        assert_eq!(
            peer_transfer_split(1_000_000, 900_000, 600_000),
            (300_000, 100_000)
        );
        // A peer holding more than the current graph caps at the graph.
        assert_eq!(peer_transfer_split(500_000, 2_000_000, 0), (500_000, 0));
    }
}
