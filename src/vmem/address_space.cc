#include "vmem/address_space.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "support/strings.h"

namespace flexos {

// The frame slots of one Map call, shared by every page entry that maps one
// of its pages, aliases included. The simulator runs on one host thread, so
// the mapping count is a plain integer.
struct PageRegion {
  explicit PageRegion(uint64_t pages) : frames(pages) {}

  std::vector<std::unique_ptr<PageData>> frames;  // Null until first write.
  uint64_t mappings = 0;  // Page entries that point at this region.
};

namespace {

constexpr bool PageAligned(uint64_t value) { return value % kPageSize == 0; }

// What every never-written page reads as; const, so no write can reach it.
constexpr PageData kZeroPage{};

// Recycled frames, each all zero. Never destroyed, so it outlives every
// address space, static ones included.
std::vector<std::unique_ptr<PageData>>& FreeFrames() {
  static auto* const frames = new std::vector<std::unique_ptr<PageData>>();
  return *frames;
}

// The page's frame, or the zero page until the page's first write.
const PageData& View(const PageEntry& page) {
  const PageData* frame = page.region->frames[page.slot].get();
  return frame != nullptr ? *frame : kZeroPage;
}

// The page's frame; the page's first write takes one from the free list.
PageData& Materialize(const PageEntry& page) {
  std::unique_ptr<PageData>& frame = page.region->frames[page.slot];
  if (frame == nullptr) {
    std::vector<std::unique_ptr<PageData>>& free_frames = FreeFrames();
    if (free_frames.empty()) {
      frame = std::make_unique<PageData>();
    } else {
      frame = std::move(free_frames.back());
      free_frames.pop_back();
    }
  }
  return *frame;
}

// Drops one page's mapping. The region's last mapping re-zeroes its frames
// onto the free list and deletes the region.
void ReleasePage(PageEntry& page) {
  PageRegion* region = page.region;
  page = PageEntry{};
  if (region == nullptr || --region->mappings > 0) {
    return;
  }
  for (std::unique_ptr<PageData>& frame : region->frames) {
    if (frame != nullptr) {
      frame->bytes.fill(0);
      frame->shadow.fill(0);
      FreeFrames().push_back(std::move(frame));
    }
  }
  delete region;
}

}  // namespace

size_t RecycledFrameCount() { return FreeFrames().size(); }

AddressSpace::AddressSpace(Machine& machine, std::string name,
                           uint64_t size_bytes)
    : machine_(machine), name_(std::move(name)) {
  FLEXOS_CHECK(PageAligned(size_bytes), "address space size not page-aligned");
  FLEXOS_CHECK(size_bytes / kPageSize <= std::numeric_limits<uint32_t>::max(),
               "address space too large for 32-bit frame slots");
  pages_.resize(size_bytes / kPageSize);
}

AddressSpace::~AddressSpace() {
  for (PageEntry& page : pages_) {
    ReleasePage(page);
  }
}

Status AddressSpace::Map(Gaddr addr, uint64_t size, Pkey key, bool writable) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "Map: unaligned range");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "Map: beyond address space");
  }
  if (key >= kNumPkeys) {
    return Status(ErrorCode::kInvalidArgument, "Map: bad pkey");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    if (pages_[i].mapped() || pages_[i].guard) {
      return Status(ErrorCode::kAlreadyExists,
                    StrFormat("Map: page 0x%llx already mapped",
                              static_cast<unsigned long long>(i * kPageSize)));
    }
  }
  auto* region = new PageRegion(count);
  region->mappings = count;
  for (uint64_t i = 0; i < count; ++i) {
    PageEntry& page = pages_[first + i];
    page.region = region;
    page.slot = static_cast<uint32_t>(i);
    page.key = key;
    page.writable = writable;
    page.guard = false;
  }
  return Status::Ok();
}

Status AddressSpace::MapAlias(Gaddr dst_addr, AddressSpace& source,
                              Gaddr src_addr, uint64_t size) {
  if (!PageAligned(dst_addr) || !PageAligned(src_addr) || !PageAligned(size) ||
      size == 0) {
    return Status(ErrorCode::kInvalidArgument, "MapAlias: unaligned range");
  }
  if (dst_addr / kPageSize + size / kPageSize > pages_.size() ||
      src_addr / kPageSize + size / kPageSize > source.pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "MapAlias: beyond address space");
  }
  const uint64_t count = size / kPageSize;
  for (uint64_t i = 0; i < count; ++i) {
    const PageEntry& src = source.pages_[src_addr / kPageSize + i];
    PageEntry& dst = pages_[dst_addr / kPageSize + i];
    if (!src.mapped()) {
      return Status(ErrorCode::kNotFound, "MapAlias: source page unmapped");
    }
    if (dst.mapped() || dst.guard) {
      return Status(ErrorCode::kAlreadyExists, "MapAlias: dest page mapped");
    }
  }
  for (uint64_t i = 0; i < count; ++i) {
    const PageEntry& src = source.pages_[src_addr / kPageSize + i];
    PageEntry& dst = pages_[dst_addr / kPageSize + i];
    dst = src;  // Shared slot: a write through either space shows in both.
    ++dst.region->mappings;
  }
  return Status::Ok();
}

Status AddressSpace::MapGuard(Gaddr addr, uint64_t size) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "MapGuard: unaligned range");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "MapGuard: beyond address space");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    if (pages_[i].mapped()) {
      return Status(ErrorCode::kAlreadyExists, "MapGuard: page mapped");
    }
    pages_[i].guard = true;
  }
  return Status::Ok();
}

Status AddressSpace::Unmap(Gaddr addr, uint64_t size) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "Unmap: unaligned range");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "Unmap: beyond address space");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    ReleasePage(pages_[i]);
  }
  return Status::Ok();
}

Status AddressSpace::SetKey(Gaddr addr, uint64_t size, Pkey key) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "SetKey: unaligned range");
  }
  if (key >= kNumPkeys) {
    return Status(ErrorCode::kInvalidArgument, "SetKey: bad pkey");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "SetKey: beyond address space");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    if (!pages_[i].mapped()) {
      return Status(ErrorCode::kNotFound, "SetKey: page unmapped");
    }
  }
  for (uint64_t i = first; i < first + count; ++i) {
    pages_[i].key = key;
  }
  return Status::Ok();
}

Result<Pkey> AddressSpace::KeyOf(Gaddr addr) const {
  const uint64_t index = addr / kPageSize;
  if (index >= pages_.size() || !pages_[index].mapped()) {
    return Status(ErrorCode::kNotFound, "KeyOf: page unmapped");
  }
  return pages_[index].key;
}

bool AddressSpace::IsMapped(Gaddr addr) const {
  const uint64_t index = addr / kPageSize;
  return index < pages_.size() && pages_[index].mapped();
}

void AddressSpace::FaultUnmapped(Gaddr addr, AccessKind access) {
  ++machine_.stats().traps;
  RaiseTrap(TrapInfo{.kind = TrapKind::kPageFault,
                     .access = access,
                     .guest_addr = addr,
                     .pkru = machine_.context().pkru.raw(),
                     .detail = StrFormat("space '%s'", name_.c_str())});
}

const PageEntry& AddressSpace::ResolvePage(Gaddr addr, AccessKind access,
                                           CheckMode mode) {
  const uint64_t index = addr / kPageSize;
  if (index >= pages_.size()) {
    FaultUnmapped(addr, access);
  }
  const PageEntry& page = pages_[index];
  if (page.guard && mode == CheckMode::kChecked) {
    ++machine_.stats().traps;
    RaiseTrap(TrapInfo{.kind = TrapKind::kStackOverflow,
                       .access = access,
                       .guest_addr = addr,
                       .detail = StrFormat("guard page in '%s'",
                                           name_.c_str())});
  }
  if (!page.mapped()) {
    FaultUnmapped(addr, access);
  }
  if (mode == CheckMode::kChecked) {
    const Pkru pkru = machine_.context().pkru;
    const bool allowed = access == AccessKind::kWrite
                             ? (page.writable && pkru.CanWrite(page.key))
                             : pkru.CanRead(page.key);
    if (!allowed) {
      ++machine_.stats().traps;
      RaiseTrap(TrapInfo{.kind = TrapKind::kProtectionFault,
                         .access = access,
                         .guest_addr = addr,
                         .pkey = page.key,
                         .pkru = pkru.raw(),
                         .detail = StrFormat("space '%s'", name_.c_str())});
    }
  }
  return page;
}

void AddressSpace::CheckShadow(const PageData& page, Gaddr addr,
                               uint64_t in_page_off, uint64_t span,
                               AccessKind access) {
  const uint64_t first_granule = in_page_off / kShadowGranule;
  const uint64_t last_granule = (in_page_off + span - 1) / kShadowGranule;
  for (uint64_t g = first_granule; g <= last_granule; ++g) {
    const uint8_t shadow = page.shadow[g];
    if (shadow == kShadowAddressable) {
      continue;
    }
    // Bytes of this access that fall inside granule g.
    const uint64_t granule_begin = g * kShadowGranule;
    const uint64_t begin = std::max(in_page_off, granule_begin);
    const uint64_t end =
        std::min(in_page_off + span, granule_begin + kShadowGranule);
    if (shadow < kShadowGranule) {
      // Partially addressable: first `shadow` bytes of the granule OK.
      if (end - granule_begin <= shadow) {
        continue;
      }
    }
    ++machine_.stats().traps;
    RaiseTrap(TrapInfo{
        .kind = TrapKind::kAsanViolation,
        .access = access,
        .guest_addr = addr - in_page_off + begin,
        .pkru = machine_.context().pkru.raw(),
        .detail = StrFormat("shadow=0x%02x in '%s'", shadow, name_.c_str())});
  }
}

template <typename Fn>
void AddressSpace::ForEachChunk(Gaddr addr, uint64_t size, AccessKind access,
                                CheckMode mode, Fn&& fn) {
  if (size == 0) {
    return;
  }
  if (mode == CheckMode::kChecked) {
    machine_.ChargeMemOp(size);
  }
  uint64_t done = 0;
  while (done < size) {
    const Gaddr current = addr + done;
    const uint64_t in_page_off = current % kPageSize;
    const uint64_t span = std::min(size - done, kPageSize - in_page_off);
    const PageEntry& page = ResolvePage(current, access, mode);
    if (mode == CheckMode::kChecked && machine_.context().shadow_checks) {
      CheckShadow(View(page), current, in_page_off, span, access);
    }
    if (mode == CheckMode::kChecked && machine_.race_detection() &&
        access != AccessKind::kExecute) {
      // flexrace probe: key-0 pages are the shared region — the only memory
      // visible from more than one compartment (and hence more than one
      // vCPU). Immutable pages cannot race.
      if (page.key == 0 && page.writable) {
        machine_.ProbeSharedAccess(current, span,
                                   access == AccessKind::kWrite);
      }
    }
    fn(page, in_page_off, span, done);
    done += span;
  }
}

void AddressSpace::Read(Gaddr addr, void* dst, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kRead, CheckMode::kChecked,
               [&](const PageEntry& page, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(static_cast<uint8_t*>(dst) + done,
                             View(page).bytes.data() + off, span);
               });
}

void AddressSpace::Write(Gaddr addr, const void* src, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kWrite, CheckMode::kChecked,
               [&](const PageEntry& page, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(Materialize(page).bytes.data() + off,
                             static_cast<const uint8_t*>(src) + done, span);
               });
}

void AddressSpace::Fill(Gaddr addr, uint8_t value, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kWrite, CheckMode::kChecked,
               [&](const PageEntry& page, uint64_t off, uint64_t span,
                   uint64_t) {
                 std::memset(Materialize(page).bytes.data() + off, value,
                             span);
               });
}

void AddressSpace::Copy(Gaddr dst, Gaddr src, uint64_t size) {
  // Bounce through a host buffer page by page; charges both sides.
  uint8_t buffer[kPageSize];
  uint64_t done = 0;
  while (done < size) {
    const uint64_t span = std::min<uint64_t>(size - done, kPageSize);
    Read(src + done, buffer, span);
    Write(dst + done, buffer, span);
    done += span;
  }
}

void AddressSpace::Poison(Gaddr addr, uint64_t size, uint8_t code) {
  if (size == 0) {
    return;
  }
  uint64_t done = 0;
  while (done < size) {
    const Gaddr current = addr + done;
    const uint64_t in_page_off = current % kPageSize;
    const uint64_t span = std::min(size - done, kPageSize - in_page_off);
    PageData& page = Materialize(
        ResolvePage(current, AccessKind::kWrite, CheckMode::kUnchecked));
    // Poison whole granules; a partial head/tail granule is poisoned
    // conservatively only when fully covered, else left as-is (the allocator
    // aligns redzones to the granule so this path is exact in practice).
    uint64_t begin = in_page_off;
    uint64_t end = in_page_off + span;
    uint64_t g_begin = (begin + kShadowGranule - 1) / kShadowGranule;
    uint64_t g_end = end / kShadowGranule;
    for (uint64_t g = g_begin; g < g_end; ++g) {
      page.shadow[g] = code;
    }
    done += span;
  }
}

void AddressSpace::Unpoison(Gaddr addr, uint64_t size) {
  if (size == 0) {
    return;
  }
  uint64_t done = 0;
  while (done < size) {
    const Gaddr current = addr + done;
    const uint64_t in_page_off = current % kPageSize;
    const uint64_t span = std::min(size - done, kPageSize - in_page_off);
    PageData& page = Materialize(
        ResolvePage(current, AccessKind::kWrite, CheckMode::kUnchecked));
    const uint64_t begin = in_page_off;
    const uint64_t end = in_page_off + span;
    for (uint64_t g = begin / kShadowGranule;
         g <= (end - 1) / kShadowGranule; ++g) {
      const uint64_t granule_begin = g * kShadowGranule;
      const uint64_t granule_end = granule_begin + kShadowGranule;
      if (begin <= granule_begin && end >= granule_end) {
        page.shadow[g] = kShadowAddressable;
      } else if (begin <= granule_begin && end > granule_begin) {
        // Partial tail: first (end - granule_begin) bytes addressable.
        page.shadow[g] = static_cast<uint8_t>(end - granule_begin);
      }
      // A partial head (begin inside the granule) cannot be represented by
      // ASAN's encoding; leave the existing shadow byte untouched.
    }
    done += span;
  }
}

bool AddressSpace::IsPoisoned(Gaddr addr, uint64_t size) {
  bool poisoned = false;
  uint64_t done = 0;
  while (done < size && !poisoned) {
    const Gaddr current = addr + done;
    const uint64_t in_page_off = current % kPageSize;
    const uint64_t span = std::min(size - done, kPageSize - in_page_off);
    const PageData& page = View(
        ResolvePage(current, AccessKind::kRead, CheckMode::kUnchecked));
    const uint64_t first = in_page_off / kShadowGranule;
    const uint64_t last = (in_page_off + span - 1) / kShadowGranule;
    for (uint64_t g = first; g <= last; ++g) {
      const uint8_t shadow = page.shadow[g];
      if (shadow == kShadowAddressable) {
        continue;
      }
      const uint64_t granule_begin = g * kShadowGranule;
      const uint64_t begin = std::max(in_page_off, granule_begin);
      const uint64_t end =
          std::min(in_page_off + span, granule_begin + kShadowGranule);
      if (shadow < kShadowGranule && end - granule_begin <= shadow) {
        continue;
      }
      (void)begin;
      poisoned = true;
      break;
    }
    done += span;
  }
  return poisoned;
}

void AddressSpace::ReadUnchecked(Gaddr addr, void* dst, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kRead, CheckMode::kUnchecked,
               [&](const PageEntry& page, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(static_cast<uint8_t*>(dst) + done,
                             View(page).bytes.data() + off, span);
               });
}

void AddressSpace::WriteUnchecked(Gaddr addr, const void* src, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kWrite, CheckMode::kUnchecked,
               [&](const PageEntry& page, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(Materialize(page).bytes.data() + off,
                             static_cast<const uint8_t*>(src) + done, span);
               });
}

}  // namespace flexos
