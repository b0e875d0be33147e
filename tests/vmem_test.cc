#include <gtest/gtest.h>

#include "vmem/access.h"
#include "vmem/address_space.h"
#include "vmem/shadow.h"

namespace flexos {
namespace {

class VmemTest : public ::testing::Test {
 protected:
  Machine machine_;
  AddressSpace space_{machine_, "test", 64 * kPageSize};
};

TEST_F(VmemTest, MapWriteReadRoundTrip) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 1).ok());
  const char data[] = "hello flexos";
  space_.Write(100, data, sizeof(data));
  char out[sizeof(data)] = {};
  space_.Read(100, out, sizeof(data));
  EXPECT_STREQ(out, "hello flexos");
}

TEST_F(VmemTest, CrossPageAccess) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 1).ok());
  std::vector<uint8_t> data(3 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  space_.Write(kPageSize / 2, data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  space_.Read(kPageSize / 2, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST_F(VmemTest, UnmappedAccessPageFaults) {
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(10 * kPageSize, &byte, 1), TrapException);
  try {
    space_.Write(10 * kPageSize, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kPageFault);
    EXPECT_EQ(trap.info().access, AccessKind::kWrite);
  }
}

TEST_F(VmemTest, PkruWriteDisableFaultsOnWriteNotRead) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 2).ok());
  machine_.context().pkru =
      Pkru::AllowAll().WithAccess(2, /*allow_read=*/true,
                                  /*allow_write=*/false);
  uint8_t byte = 7;
  EXPECT_NO_THROW(space_.Read(0, &byte, 1));
  try {
    space_.Write(0, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kProtectionFault);
    EXPECT_EQ(trap.info().pkey, 2);
  }
  EXPECT_EQ(machine_.stats().traps, 1u);
}

TEST_F(VmemTest, PkruAccessDisableFaultsOnRead) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 3).ok());
  machine_.context().pkru = Pkru::AllowAll().WithAccess(3, false, false);
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(0, &byte, 1), TrapException);
}

TEST_F(VmemTest, SetKeyRetags) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 1).ok());
  ASSERT_TRUE(space_.SetKey(0, kPageSize, 4).ok());
  EXPECT_EQ(space_.KeyOf(0).value(), 4);
  machine_.context().pkru = Pkru::AllowAll().WithAccess(4, false, false);
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(0, &byte, 1), TrapException);
}

TEST_F(VmemTest, GuardPageTrapsAsStackOverflow) {
  ASSERT_TRUE(space_.MapGuard(0, kPageSize).ok());
  uint8_t byte = 0;
  try {
    space_.Read(16, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kStackOverflow);
  }
}

TEST_F(VmemTest, DoubleMapRejected) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 1).ok());
  EXPECT_EQ(space_.Map(0, kPageSize, 1).code(), ErrorCode::kAlreadyExists);
}

TEST_F(VmemTest, UnalignedMapRejected) {
  EXPECT_EQ(space_.Map(10, kPageSize, 1).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(space_.Map(0, 100, 1).code(), ErrorCode::kInvalidArgument);
}

TEST_F(VmemTest, MapBeyondSpaceRejected) {
  EXPECT_EQ(space_.Map(63 * kPageSize, 2 * kPageSize, 1).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(VmemTest, BadPkeyRejected) {
  EXPECT_EQ(space_.Map(0, kPageSize, 16).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(VmemTest, UnmapThenAccessFaults) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 1).ok());
  ASSERT_TRUE(space_.Unmap(0, kPageSize).ok());
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(0, &byte, 1), TrapException);
}

TEST_F(VmemTest, AccessChargesCycles) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 0).ok());
  const uint64_t before = machine_.clock().cycles();
  std::vector<uint8_t> buffer(8192);
  space_.Write(0, buffer.data(), buffer.size());
  EXPECT_GT(machine_.clock().cycles(), before);
}

TEST_F(VmemTest, UncheckedAccessBypassesProtectionAndCharges) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 5).ok());
  machine_.context().pkru = Pkru::DenyAll();
  const uint64_t before = machine_.clock().cycles();
  uint8_t byte = 9;
  EXPECT_NO_THROW(space_.WriteUnchecked(0, &byte, 1));
  EXPECT_NO_THROW(space_.ReadUnchecked(0, &byte, 1));
  EXPECT_EQ(machine_.clock().cycles(), before);
}

TEST_F(VmemTest, AliasSharesBacking) {
  AddressSpace other(machine_, "other", 64 * kPageSize);
  ASSERT_TRUE(space_.Map(0, kPageSize, 0).ok());
  ASSERT_TRUE(other.MapAlias(0, space_, 0, kPageSize).ok());
  const uint32_t value = 0xdeadbeef;
  space_.WriteT<uint32_t>(64, value);
  EXPECT_EQ(other.ReadT<uint32_t>(64), value);
  other.WriteT<uint32_t>(64, 7);
  EXPECT_EQ(space_.ReadT<uint32_t>(64), 7u);
}

TEST_F(VmemTest, WriteThenAliasSharesBacking) {
  AddressSpace other(machine_, "other", 64 * kPageSize);
  ASSERT_TRUE(space_.Map(0, 2 * kPageSize, 0).ok());
  space_.WriteT<uint32_t>(kPageSize + 64, 0xfeedface);
  ASSERT_TRUE(other.MapAlias(0, space_, 0, 2 * kPageSize).ok());
  EXPECT_EQ(other.ReadT<uint32_t>(kPageSize + 64), 0xfeedfaceu);
  // The page nobody wrote yet is shared too: its first write, through the
  // alias, shows in the source.
  EXPECT_EQ(other.ReadT<uint32_t>(64), 0u);
  other.WriteT<uint32_t>(64, 9);
  EXPECT_EQ(space_.ReadT<uint32_t>(64), 9u);
}

TEST_F(VmemTest, AliasKeepsBackingAfterSourceGoes) {
  AddressSpace alias(machine_, "alias", 64 * kPageSize);
  {
    AddressSpace source(machine_, "source", 64 * kPageSize);
    ASSERT_TRUE(source.Map(0, kPageSize, 0).ok());
    source.WriteT<uint32_t>(0, 42);
    ASSERT_TRUE(alias.MapAlias(0, source, 0, kPageSize).ok());
  }
  EXPECT_EQ(alias.ReadT<uint32_t>(0), 42u);
}

TEST_F(VmemTest, UnmapThenMapReadsZeros) {
  ASSERT_TRUE(space_.Map(0, 2 * kPageSize, 1).ok());
  space_.Fill(0, 0xcc, 2 * kPageSize);
  ASSERT_TRUE(space_.Unmap(0, kPageSize).ok());
  ASSERT_TRUE(space_.Map(0, kPageSize, 1).ok());
  std::vector<uint8_t> out(kPageSize, 0xff);
  space_.Read(0, out.data(), kPageSize);
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
  // The page left mapped keeps its data.
  space_.Read(kPageSize, out.data(), kPageSize);
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0xcc));
}

TEST_F(VmemTest, NeverWrittenPageKeepsProtectionAndGuardTraps) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 3).ok());
  ASSERT_TRUE(space_.MapGuard(kPageSize, kPageSize).ok());
  machine_.context().pkru = Pkru::AllowAll().WithAccess(3, false, false);
  uint8_t byte = 0x5a;
  try {
    space_.Read(0, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kProtectionFault);
    EXPECT_EQ(trap.info().pkey, 3);
  }
  machine_.context().pkru = Pkru::AllowAll();
  try {
    space_.Read(kPageSize, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kStackOverflow);
  }
  EXPECT_EQ(byte, 0x5a);  // Neither read was served from the zero page.
}

TEST_F(VmemTest, RecycledFrameComesBackZeroed) {
  {
    AddressSpace old_owner(machine_, "old", kPageSize);
    ASSERT_TRUE(old_owner.Map(0, kPageSize, 0).ok());
    old_owner.Fill(0, 0xee, kPageSize);
    old_owner.Poison(0, kPageSize, kShadowFreed);
  }
  const size_t free_frames = RecycledFrameCount();
  ASSERT_TRUE(space_.Map(0, kPageSize, 0).ok());
  space_.WriteT<uint8_t>(0, 0);
  // The write took the frame the old owner returned last.
  EXPECT_EQ(RecycledFrameCount(), free_frames - 1);
  machine_.context().shadow_checks = true;
  std::vector<uint8_t> out(kPageSize, 0xff);
  space_.Read(0, out.data(), kPageSize);
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_FALSE(space_.IsPoisoned(0, kPageSize));
}

// --- ASAN-lite shadow -----------------------------------------------------

class ShadowTest : public VmemTest {
 protected:
  void SetUp() override {
    ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 0).ok());
    machine_.context().shadow_checks = true;
  }
};

TEST_F(ShadowTest, PoisonedAccessTraps) {
  space_.Poison(64, 32, kShadowHeapRedzone);
  uint8_t byte = 0;
  try {
    space_.Read(64, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kAsanViolation);
  }
}

TEST_F(ShadowTest, UnpoisonedAccessPasses) {
  space_.Poison(64, 32, kShadowHeapRedzone);
  space_.Unpoison(64, 32);
  uint8_t byte = 0;
  EXPECT_NO_THROW(space_.Read(64, &byte, 1));
}

TEST_F(ShadowTest, AccessBeforeRedzoneIsFine) {
  space_.Poison(128, 64, kShadowHeapRedzone);
  uint8_t buffer[64];
  EXPECT_NO_THROW(space_.Read(64, buffer, 64));
  EXPECT_THROW(space_.Read(64, buffer, 65), TrapException);
}

TEST_F(ShadowTest, PartialGranuleTailHonored) {
  // Unpoison 12 bytes: granule 0 fully addressable, granule 1 has 4 valid.
  space_.Poison(0, 32, kShadowHeapRedzone);
  space_.Unpoison(0, 12);
  uint8_t buffer[16];
  EXPECT_NO_THROW(space_.Read(0, buffer, 12));
  EXPECT_THROW(space_.Read(0, buffer, 13), TrapException);
}

TEST_F(ShadowTest, ChecksOffWhenUninstrumented) {
  space_.Poison(64, 32, kShadowFreed);
  machine_.context().shadow_checks = false;
  uint8_t byte = 0;
  EXPECT_NO_THROW(space_.Read(64, &byte, 1));
}

TEST_F(ShadowTest, NeverWrittenPageReadsZeroAndTakesNoFrame) {
  {
    // Leaves at least one frame on the free list, so that taking a frame
    // shows as a drop in RecycledFrameCount().
    AddressSpace donor(machine_, "donor", kPageSize);
    ASSERT_TRUE(donor.Map(0, kPageSize, 0).ok());
    donor.WriteT<uint8_t>(0, 1);
  }
  const size_t free_frames = RecycledFrameCount();
  std::vector<uint8_t> out(4 * kPageSize, 0xff);
  space_.Read(0, out.data(), out.size());
  EXPECT_EQ(out, std::vector<uint8_t>(4 * kPageSize, 0));
  EXPECT_FALSE(space_.IsPoisoned(0, 4 * kPageSize));
  EXPECT_EQ(RecycledFrameCount(), free_frames);
  space_.WriteT<uint8_t>(kPageSize, 1);
  EXPECT_EQ(RecycledFrameCount(), free_frames - 1);
}

TEST_F(ShadowTest, IsPoisonedReflectsState) {
  EXPECT_FALSE(space_.IsPoisoned(0, 64));
  space_.Poison(0, 64, kShadowFreed);
  EXPECT_TRUE(space_.IsPoisoned(0, 64));
  EXPECT_TRUE(space_.IsPoisoned(32, 8));
}

TEST(ShadowNames, CodesHaveNames) {
  EXPECT_EQ(ShadowCodeName(kShadowAddressable), "addressable");
  EXPECT_EQ(ShadowCodeName(kShadowHeapRedzone), "heap-redzone");
  EXPECT_EQ(ShadowCodeName(kShadowFreed), "heap-freed");
  EXPECT_EQ(ShadowCodeName(3), "partially-addressable");
}

// --- GuestSlice -------------------------------------------------------------

TEST_F(VmemTest, GuestSliceBounds) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 0).ok());
  GuestSlice slice(space_, 0, 128);
  slice.WriteTAt<uint32_t>(0, 77);
  EXPECT_EQ(slice.ReadTAt<uint32_t>(0), 77u);
  GuestSlice sub = slice.Sub(64, 64);
  EXPECT_EQ(sub.addr(), 64u);
  EXPECT_EQ(sub.size(), 64u);
  EXPECT_EQ(slice.ToVector().size(), 128u);
}

}  // namespace
}  // namespace flexos
