// jexfs on-disk format: extent-based inodes, a fixed inode table, an
// allocation bitmap, and a physical (full-data redo) write-ahead journal.
//
// Everything here is pure byte-image manipulation with no kernel
// dependencies: the module (jexfs.cc) uses the struct layouts and the
// checksum, while the crash-consistency harness and fsck tests run Mkfs /
// Replay / Fsck directly on host buffers that model the disk after an
// arbitrary power cut.
//
// Layout (block = sector = 512 bytes):
//
//   block 0                  superblock (JexDiskSuper), immutable after mkfs
//   itable_start  ..+blocks  inode table (4 JexDiskInode per block)
//   bitmap_start  ..+blocks  allocation bitmap (bit i = data_start + i)
//   journal_start            journal superblock (JexJournalSuper: epoch)
//   journal_start+1 ..       journal records: desc, data blocks, commit
//   data_start    ..total    extents (file data and directory blocks)
//
// Journal protocol (docs/block_fs_enforcement.md):
//   - A transaction stages full copies of every block it touches. Commit
//     appends [desc | data... | commit] to the journal as one direct bio,
//     then applies the staged blocks to their home locations through the
//     page cache (dirty, not yet durable).
//   - The commit record repeats the descriptor's (epoch, seq, nblocks) and
//     carries an FNV-1a checksum over the data blocks. The bio's sectors
//     may become durable in any order; a torn append, even one whose commit
//     sector landed before a stale descriptor or data sector, fails one of
//     those equalities and the transaction is discarded by replay.
//   - A checkpoint makes the home blocks durable (pc_sync), then bumps the
//     journal epoch with a single journal-superblock write and resets the
//     head. Replay only applies records of the current epoch, so a crash on
//     either side of the epoch write is idempotent: before it, the old
//     records re-apply what sync already wrote; after it, they are ignored.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/hash.h"

namespace mods {

inline constexpr uint32_t kJexBlockSize = 512;
inline constexpr uint64_t kJexMagic = 0x3146534658454aull;          // "JEXFS1"
inline constexpr uint64_t kJexJournalMagic = 0x42534a58454aull;     // "JEXJSB"
inline constexpr uint64_t kJexDescMagic = 0x435345445845ull;        // "JEXDESC"-ish
inline constexpr uint64_t kJexCommitMagic = 0x544d435845ull;        // "JEXCMT"-ish
inline constexpr uint32_t kJexVersion = 1;

// Mode bits match the kernel's kIfReg/kIfDir so the module can store disk
// modes into kernel inodes unchanged. 0 marks a free inode slot.
inline constexpr uint32_t kJexModeReg = 0x8000;
inline constexpr uint32_t kJexModeDir = 0x4000;

inline constexpr uint32_t kJexExtentsPerInode = 6;
inline constexpr uint32_t kJexNameMax = 27;
inline constexpr uint32_t kJexNoInode = 0xffffffffu;
// A transaction stages at most this many blocks: the descriptor's home
// array fits one block alongside the header.
inline constexpr uint32_t kJexMaxTxBlocks = 56;

struct JexExtent {
  uint64_t start = 0;  // absolute block number (0 = unused slot)
  uint64_t len = 0;    // blocks
};

struct JexDiskSuper {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t pad = 0;
  uint64_t total_blocks = 0;
  uint64_t itable_start = 0;
  uint64_t itable_blocks = 0;
  uint64_t bitmap_start = 0;
  uint64_t bitmap_blocks = 0;
  uint64_t journal_start = 0;
  uint64_t journal_blocks = 0;  // includes the journal superblock
  uint64_t data_start = 0;
};

struct JexDiskInode {
  uint32_t mode = 0;  // 0 = free slot
  uint32_t nlink = 0;
  uint64_t size = 0;  // bytes (file) / used directory bytes (dir)
  JexExtent ext[kJexExtentsPerInode];
};

inline constexpr uint32_t kJexInodesPerBlock = kJexBlockSize / sizeof(JexDiskInode);

struct JexDirEnt {
  uint32_t ino = kJexNoInode;  // inode-table index; kJexNoInode = free slot
  char name[kJexNameMax + 1] = {};
};

inline constexpr uint32_t kJexDirEntsPerBlock = kJexBlockSize / sizeof(JexDirEnt);

struct JexJournalSuper {
  uint64_t magic = 0;
  uint64_t epoch = 0;
};

struct JexJournalDesc {
  uint64_t magic = 0;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  uint64_t nblocks = 0;
  uint64_t checksum = 0;  // FNV-1a over the nblocks data blocks, in order
  uint64_t home[kJexMaxTxBlocks] = {};
};

struct JexJournalCommit {
  uint64_t magic = 0;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  uint64_t nblocks = 0;
  uint64_t checksum = 0;
};

static_assert(sizeof(JexDiskInode) == 112, "inode layout");
static_assert(kJexInodesPerBlock == 4, "4 inodes per block");
static_assert(sizeof(JexDirEnt) == 32, "dirent layout");
static_assert(sizeof(JexJournalDesc) <= kJexBlockSize, "desc fits a block");
static_assert(sizeof(JexJournalSuper) <= kJexBlockSize, "jsb fits a block");
static_assert(sizeof(JexJournalCommit) <= kJexBlockSize, "commit fits a block");

inline uint64_t JexChecksum(const uint8_t* data, size_t nblocks) {
  return lxfi::Fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data), nblocks * kJexBlockSize));
}

// --- pure image helpers (host-side: mkfs, replay, fsck) ----------------------

inline uint8_t* JexBlockPtr(uint8_t* img, uint64_t block) {
  return img + block * kJexBlockSize;
}
inline const uint8_t* JexBlockPtr(const uint8_t* img, uint64_t block) {
  return img + block * kJexBlockSize;
}

// Formats `img` (total_blocks * 512 bytes, caller-zeroed or not) with an
// empty root directory. Geometry: 8 itable blocks (32 inodes), 1 bitmap
// block (4096 data blocks max), 65 journal blocks (superblock + 64 record
// blocks). Returns false if the device is too small.
inline bool JexMkfs(uint8_t* img, uint64_t total_blocks) {
  JexDiskSuper sup;
  sup.magic = kJexMagic;
  sup.version = kJexVersion;
  sup.total_blocks = total_blocks;
  sup.itable_start = 1;
  sup.itable_blocks = 8;
  sup.bitmap_start = sup.itable_start + sup.itable_blocks;
  sup.bitmap_blocks = 1;
  sup.journal_start = sup.bitmap_start + sup.bitmap_blocks;
  sup.journal_blocks = 65;
  sup.data_start = sup.journal_start + sup.journal_blocks;
  if (total_blocks <= sup.data_start + 1 ||
      total_blocks - sup.data_start > sup.bitmap_blocks * kJexBlockSize * 8) {
    return false;
  }
  std::memset(img, 0, total_blocks * kJexBlockSize);
  std::memcpy(JexBlockPtr(img, 0), &sup, sizeof(sup));

  JexDiskInode root;
  root.mode = kJexModeDir;
  root.nlink = 2;
  std::memcpy(JexBlockPtr(img, sup.itable_start), &root, sizeof(root));

  JexJournalSuper jsb;
  jsb.magic = kJexJournalMagic;
  jsb.epoch = 1;
  std::memcpy(JexBlockPtr(img, sup.journal_start), &jsb, sizeof(jsb));
  return true;
}

// Scans the journal and applies every fully-committed transaction of the
// current epoch to its home blocks. Returns the number of transactions
// applied, or -1 on a corrupt superblock. This is the same algorithm the
// module runs at mount; the crash harness uses this copy on host images.
inline int JexReplay(uint8_t* img, uint64_t img_blocks) {
  JexDiskSuper sup;
  std::memcpy(&sup, JexBlockPtr(img, 0), sizeof(sup));
  if (sup.magic != kJexMagic || sup.version != kJexVersion ||
      sup.total_blocks > img_blocks || sup.data_start >= sup.total_blocks) {
    return -1;
  }
  JexJournalSuper jsb;
  std::memcpy(&jsb, JexBlockPtr(img, sup.journal_start), sizeof(jsb));
  if (jsb.magic != kJexJournalMagic) {
    return -1;
  }
  int applied = 0;
  uint64_t jend = sup.journal_start + sup.journal_blocks;
  uint64_t j = sup.journal_start + 1;
  uint64_t expect_seq = 0;
  while (j + 2 <= jend) {
    JexJournalDesc desc;
    std::memcpy(&desc, JexBlockPtr(img, j), sizeof(desc));
    if (desc.magic != kJexDescMagic || desc.epoch != jsb.epoch ||
        desc.nblocks == 0 || desc.nblocks > kJexMaxTxBlocks ||
        j + 1 + desc.nblocks + 1 > jend ||
        (expect_seq != 0 && desc.seq != expect_seq)) {
      break;
    }
    JexJournalCommit commit;
    std::memcpy(&commit, JexBlockPtr(img, j + 1 + desc.nblocks), sizeof(commit));
    uint64_t sum = JexChecksum(JexBlockPtr(img, j + 1), desc.nblocks);
    if (commit.magic != kJexCommitMagic || commit.epoch != desc.epoch ||
        commit.seq != desc.seq || commit.nblocks != desc.nblocks ||
        commit.checksum != desc.checksum || sum != desc.checksum) {
      break;  // torn transaction: discard it and everything after
    }
    bool homes_ok = true;
    for (uint64_t i = 0; i < desc.nblocks; ++i) {
      uint64_t home = desc.home[i];
      // Home blocks may be metadata or data but never the superblock or
      // the journal itself.
      if (home == 0 || home >= sup.total_blocks ||
          (home >= sup.journal_start && home < jend)) {
        homes_ok = false;
        break;
      }
    }
    if (!homes_ok) {
      break;
    }
    for (uint64_t i = 0; i < desc.nblocks; ++i) {
      std::memcpy(JexBlockPtr(img, desc.home[i]), JexBlockPtr(img, j + 1 + i), kJexBlockSize);
    }
    ++applied;
    expect_seq = desc.seq + 1;
    j += 2 + desc.nblocks;
  }
  return applied;
}

// --- fsck --------------------------------------------------------------------

namespace jexfsck_detail {

inline bool Fail(std::string* err, const std::string& msg) {
  if (err != nullptr) {
    *err = msg;
  }
  return false;
}

}  // namespace jexfsck_detail

// Structural invariant check on a (replayed) image:
//   - sane superblock geometry and journal superblock;
//   - root inode allocated and a directory;
//   - every allocated inode's extents lie in the data area and no data
//     block belongs to two extents;
//   - the bitmap marks exactly the blocks some extent covers;
//   - inode sizes fit their extent capacity;
//   - directory entries reference allocated inodes, every non-root
//     allocated inode is referenced exactly once, and directory nesting is
//     acyclic (bounded depth).
inline bool JexFsck(const uint8_t* img, uint64_t img_blocks, std::string* err) {
  using jexfsck_detail::Fail;
  JexDiskSuper sup;
  std::memcpy(&sup, JexBlockPtr(img, 0), sizeof(sup));
  if (sup.magic != kJexMagic || sup.version != kJexVersion) {
    return Fail(err, "bad superblock magic/version");
  }
  if (sup.total_blocks > img_blocks || sup.itable_start != 1 ||
      sup.bitmap_start != sup.itable_start + sup.itable_blocks ||
      sup.journal_start != sup.bitmap_start + sup.bitmap_blocks ||
      sup.data_start != sup.journal_start + sup.journal_blocks ||
      sup.data_start >= sup.total_blocks) {
    return Fail(err, "bad superblock geometry");
  }
  JexJournalSuper jsb;
  std::memcpy(&jsb, JexBlockPtr(img, sup.journal_start), sizeof(jsb));
  if (jsb.magic != kJexJournalMagic || jsb.epoch == 0) {
    return Fail(err, "bad journal superblock");
  }

  uint64_t ninodes = sup.itable_blocks * kJexInodesPerBlock;
  uint64_t ndata = sup.total_blocks - sup.data_start;
  std::string use(ndata, '\0');  // per-data-block extent use count

  std::vector<JexDiskInode> inodes(ninodes);
  for (uint64_t idx = 0; idx < ninodes; ++idx) {
    const uint8_t* blk = JexBlockPtr(img, sup.itable_start + idx / kJexInodesPerBlock);
    std::memcpy(&inodes[idx], blk + (idx % kJexInodesPerBlock) * sizeof(JexDiskInode),
                sizeof(JexDiskInode));
  }
  if (inodes[0].mode != kJexModeDir) {
    return Fail(err, "root inode missing or not a directory");
  }

  for (uint64_t idx = 0; idx < ninodes; ++idx) {
    const JexDiskInode& di = inodes[idx];
    if (di.mode == 0) {
      continue;
    }
    if (di.mode != kJexModeReg && di.mode != kJexModeDir) {
      return Fail(err, "inode " + std::to_string(idx) + ": bad mode");
    }
    uint64_t cap = 0;
    for (const JexExtent& e : di.ext) {
      if (e.len == 0) {
        continue;
      }
      if (e.start < sup.data_start || e.start + e.len > sup.total_blocks) {
        return Fail(err, "inode " + std::to_string(idx) + ": extent outside data area");
      }
      for (uint64_t b = e.start; b < e.start + e.len; ++b) {
        if (++use[b - sup.data_start] > 1) {
          return Fail(err, "data block " + std::to_string(b) + " multiply claimed");
        }
      }
      cap += e.len * kJexBlockSize;
    }
    if (di.size > cap) {
      return Fail(err, "inode " + std::to_string(idx) + ": size exceeds extents");
    }
  }

  const uint8_t* bitmap = JexBlockPtr(img, sup.bitmap_start);
  for (uint64_t i = 0; i < ndata; ++i) {
    bool set = (bitmap[i / 8] >> (i % 8)) & 1;
    bool used = use[i] != 0;
    if (set != used) {
      return Fail(err, "bitmap mismatch at data block " +
                           std::to_string(sup.data_start + i) +
                           (set ? " (set but unused)" : " (used but clear)"));
    }
  }

  // Directory walk: count references and verify entries.
  std::vector<uint32_t> refs(ninodes, 0);
  struct Frame {
    uint32_t ino;
    uint32_t depth;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.depth > 64) {
      return Fail(err, "directory nesting too deep (cycle?)");
    }
    const JexDiskInode& dir = inodes[f.ino];
    for (const JexExtent& e : dir.ext) {
      for (uint64_t b = e.start; b < e.start + e.len; ++b) {
        const uint8_t* blk = JexBlockPtr(img, b);
        for (uint32_t s = 0; s < kJexDirEntsPerBlock; ++s) {
          JexDirEnt ent;
          std::memcpy(&ent, blk + s * sizeof(JexDirEnt), sizeof(ent));
          if (ent.ino == kJexNoInode) {
            continue;
          }
          if (ent.ino >= ninodes || inodes[ent.ino].mode == 0) {
            return Fail(err, "dirent names free/bad inode " + std::to_string(ent.ino));
          }
          if (ent.name[0] == '\0' || ent.name[kJexNameMax] != '\0') {
            return Fail(err, "dirent with bad name");
          }
          if (++refs[ent.ino] > 1) {
            return Fail(err, "inode " + std::to_string(ent.ino) + " referenced twice");
          }
          if (inodes[ent.ino].mode == kJexModeDir) {
            stack.push_back({ent.ino, f.depth + 1});
          }
        }
      }
    }
  }
  for (uint64_t idx = 1; idx < ninodes; ++idx) {
    if (inodes[idx].mode != 0 && refs[idx] == 0) {
      return Fail(err, "orphan inode " + std::to_string(idx));
    }
  }
  return true;
}

}  // namespace mods
