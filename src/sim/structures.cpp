#include "sim/structures.h"

#include "common/address.h"

namespace malec::sim {

namespace {
using energy::ArrayEstimate;
using energy::ArrayKind;
using energy::CellType;
using energy::SramArraySpec;
using energy::SramArrayModel;
}  // namespace

std::vector<StructureInfo> defineEnergies(
    energy::EnergyAccount& ea, const core::InterfaceConfig& cfg,
    const core::SystemConfig& sys, const energy::TechnologyParams& tech) {
  std::vector<StructureInfo> inv;
  const AddressLayout& L = sys.layout;
  const bool way_tables = cfg.waydet == core::WayDetKind::kWayTables;
  const bool wdu = cfg.waydet == core::WayDetKind::kWdu;

  const std::uint32_t tag_bits =
      L.addrBits() - log2Exact(L.l1Sets()) - log2Exact(L.lineBytes());
  const std::uint32_t state_bits = 2;  // valid + dirty

  // --- L1 tag arrays (one per bank; a read compares all ways) -------------
  SramArraySpec tag;
  tag.name = "l1.tag";
  tag.entries = L.l1SetsPerBank();
  tag.entry_bits = L.l1Assoc() * (tag_bits + state_bits);
  tag.rw_ports = 1;
  tag.rd_ports = cfg.l1ExtraRdPorts();
  tag.cell = CellType::kLowStandbyPower;
  const ArrayEstimate tag_est = SramArrayModel::estimate(tag, tech);
  inv.push_back({tag, tag_est, L.l1Banks()});

  // --- L1 data arrays (one per bank per way; a read delivers one
  //     sub-block pair: two adjacent 128-bit sub-blocks, Sec. IV) ----------
  // Sub-blocked data arrays: a plain access reads one 128-bit sub-block
  // per way; MALEC configurations read two adjacent sub-blocks per access
  // to double load-merge opportunities (Sec. IV) and therefore pay a wider
  // read. The paper's conventional access fires all ways in parallel.
  SramArraySpec data;
  data.name = "l1.data";
  data.entries = L.l1SetsPerBank();
  data.entry_bits = L.lineBytes() * 8;
  data.read_bits = (cfg.subblocked_pair_read ? 2 : 1) * L.subBlockBytes() * 8;
  data.rw_ports = 1;
  data.rd_ports = cfg.l1ExtraRdPorts();
  data.cell = CellType::kLowStandbyPower;
  const ArrayEstimate data_est = SramArrayModel::estimate(data, tech);
  inv.push_back({data, data_est, L.l1Banks() * L.l1Assoc()});

  // --- uTLB / TLB: fully-associative virtual tag CAM over a payload RAM.
  //     With way tables, a second physical tag CAM provides the reverse
  //     lookups used by WT validity maintenance (paper VI-A).
  const std::uint32_t page_bits = L.pageIdBits();
  auto makeTlbCam = [&](const char* name, std::uint32_t entries) {
    SramArraySpec s;
    s.name = name;
    s.kind = ArrayKind::kCam;
    s.entries = entries;
    s.entry_bits = page_bits + 2;  // ppage + flags payload
    s.search_bits = page_bits;
    s.rw_ports = 1;
    s.rd_ports = cfg.tlbExtraRdPorts();
    s.cell = CellType::kLowStandbyPower;
    return s;
  };
  const SramArraySpec utlb_v = makeTlbCam("utlb.vtag", sys.utlb_entries);
  const SramArraySpec tlb_v = makeTlbCam("tlb.vtag", sys.tlb_entries);
  const ArrayEstimate utlb_v_est = SramArrayModel::estimate(utlb_v, tech);
  const ArrayEstimate tlb_v_est = SramArrayModel::estimate(tlb_v, tech);
  inv.push_back({utlb_v, utlb_v_est, 1});
  inv.push_back({tlb_v, tlb_v_est, 1});

  ArrayEstimate utlb_p_est{}, tlb_p_est{};
  if (way_tables) {
    // Reverse (physical) tag arrays are single-ported: fills/evictions are
    // not parallel events.
    SramArraySpec utlb_p = makeTlbCam("utlb.ptag", sys.utlb_entries);
    utlb_p.rd_ports = 0;
    SramArraySpec tlb_p = makeTlbCam("tlb.ptag", sys.tlb_entries);
    tlb_p.rd_ports = 0;
    utlb_p_est = SramArrayModel::estimate(utlb_p, tech);
    tlb_p_est = SramArrayModel::estimate(tlb_p, tech);
    inv.push_back({utlb_p, utlb_p_est, 1});
    inv.push_back({tlb_p, tlb_p_est, 1});
  }

  // --- Way Tables: single-ported RAMs, one entry per TLB slot, 2 bits per
  //     line of the page (128-bit entries, Sec. V).
  ArrayEstimate uwt_est{}, wt_est{};
  if (way_tables) {
    SramArraySpec uwt;
    uwt.name = "uwt";
    uwt.entries = sys.utlb_entries;
    uwt.entry_bits = 2 * L.linesPerPage();
    // Column-muxed: a lookup delivers only the 2-bit codes of the (at most
    // banks) lines accessed this cycle, not the full 128-bit entry.
    uwt.read_bits = 2 * L.l1Banks() * 2;
    uwt.rw_ports = 1;
    uwt.cell = CellType::kLowStandbyPower;
    uwt_est = SramArrayModel::estimate(uwt, tech);
    inv.push_back({uwt, uwt_est, 1});

    SramArraySpec wt = uwt;
    wt.name = "wt";
    wt.entries = sys.tlb_entries;
    wt_est = SramArrayModel::estimate(wt, tech);
    inv.push_back({wt, wt_est, 1});
  }

  // --- WDU: fully-associative line-tag CAM; needs one search port per
  //     parallel memory reference (four for the evaluated MALEC, VI-C).
  ArrayEstimate wdu_est{};
  if (wdu) {
    SramArraySpec w;
    w.name = "wdu";
    w.kind = ArrayKind::kCam;
    w.entries = cfg.wdu_entries;
    w.entry_bits = 4;  // way + valid payload
    w.search_bits = L.addrBits() - log2Exact(L.lineBytes());
    w.rw_ports = 1;
    w.rd_ports = 3;  // 4 total search ports
    w.cell = CellType::kLowStandbyPower;
    wdu_est = SramArrayModel::estimate(w, tech);
    inv.push_back({w, wdu_est, 1});
  }

  // === events ==============================================================
  // L1 control logic: decoders/muxes/comparators outside the arrays.
  const double ctrl_pj = 0.45;
  ea.defineEvent("l1.tag_read", tag_est.read_pj);
  ea.defineEvent("l1.tag_write", tag_est.write_pj);
  ea.defineEvent("l1.data_read", data_est.read_pj);
  ea.defineEvent("l1.data_write", data_est.write_pj);
  // A full line transfer moves lineBytes/read_bits beats.
  const double pairs_per_line =
      static_cast<double>(L.lineBytes() * 8) / data.read_bits;
  ea.defineEvent("l1.line_write", data_est.write_pj * pairs_per_line);
  ea.defineEvent("l1.line_read", data_est.read_pj * pairs_per_line);
  ea.defineEvent("l1.ctrl", ctrl_pj);

  ea.defineEvent("utlb.search", utlb_v_est.search_pj);
  ea.defineEvent("tlb.search", tlb_v_est.search_pj);
  ea.defineEvent("utlb.psearch", way_tables ? utlb_p_est.search_pj : 0.0);
  ea.defineEvent("tlb.psearch", way_tables ? tlb_p_est.search_pj : 0.0);

  ea.defineEvent("uwt.read", way_tables ? uwt_est.read_pj : 0.0);
  ea.defineEvent("uwt.write", way_tables ? uwt_est.write_pj : 0.0);
  ea.defineEvent("wt.read", way_tables ? wt_est.read_pj : 0.0);
  ea.defineEvent("wt.write", way_tables ? wt_est.write_pj : 0.0);

  ea.defineEvent("wdu.search", wdu ? wdu_est.search_pj : 0.0);
  ea.defineEvent("wdu.write", wdu ? wdu_est.write_pj : 0.0);

  // === leakage =============================================================
  for (const StructureInfo& s : inv)
    ea.defineLeakage(s.spec.name, s.est.leak_mw * s.instances);
  ea.defineLeakage("l1.ctrl", 0.05);

  return inv;
}

}  // namespace malec::sim
