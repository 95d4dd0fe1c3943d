#include "src/modules/jexfs/jexfs.h"

#include <algorithm>
#include <cstring>

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "src/modules/jexfs/jexfs_format.h"

namespace mods {
namespace {

// Cached kernel inodes per mount, indexed by inode-table slot. The on-disk
// geometry (8 itable blocks) gives 32 inodes; the map is sized with slack so
// a larger mkfs would still mount (slots past the map just stay uncached).
constexpr uint32_t kJexMaxInodes = 64;

// One journal record in memory: slot 0 holds the descriptor (or, for
// single-block I/O, the superblock or the journal superblock), slots
// 1..n hold the transaction's n data blocks, staged in place, and slot
// n + 1 the commit block, so [desc | data... | commit] goes down as one bio.
constexpr uint64_t kJexRecordSlots = 2 + kJexMaxTxBlocks;

// Per-mount module state, hung off sb->s_fs_info. The single in-flight
// journal bio and the record buffer are SEPARATE kmalloc allocations, not
// members: submit_bio's pre(transfer(bio_caps(bio))) revokes whole
// overlapping WRITE ranges, so a bio or buffer embedded in this struct would
// take the entire JexSb capability with it on the first submit. The
// transfer is not exact for the buffer: it revokes the buffer's whole
// kmalloc grant, and the post-transfer grants back only the bio's
// [data, data + size), a prefix of the record. The slots past the last bio
// stay writable through the principal's own heap-partition span, which is
// why every enforced jexfs configuration runs with partitioned heaps (the
// end_io writer-set check needs disjoint slab pages anyway) and why Mount
// fails with -ENOMEM when the record lands outside that span. The module is
// single-threaded per superblock, so one bio and one record suffice.
struct JexSb {
  kern::BlockDevice* dev = nullptr;
  JexDiskSuper sup;
  uint64_t epoch = 0;
  uint64_t next_seq = 1;
  uint64_t head = 0;  // next free journal block
  int io_status = 0;
  uint64_t io_done = 0;  // completions observed (end_io dispatches)
  uint64_t tx_n = 0;
  uint64_t tx_home[kJexMaxTxBlocks] = {};
  kern::Inode* imap[kJexMaxInodes] = {};
  kern::Bio* bio = nullptr;   // dedicated allocation (see above)
  uint8_t* buf = nullptr;     // dedicated kJexRecordSlots-block record
};

uint8_t* Slot(const JexSb* js, uint64_t i) { return js->buf + i * kJexBlockSize; }

// The staged image of the transaction's i-th block.
uint8_t* TxData(const JexSb* js, uint64_t i) { return Slot(js, 1 + i); }

JexfsData* DataOf(JexfsState& st) { return static_cast<JexfsData*>(st.m->data()); }

JexSb* JsOf(kern::SuperBlock* sb) {
  return sb != nullptr ? static_cast<JexSb*>(sb->s_fs_info) : nullptr;
}

uint32_t NInodes(const JexSb* js) {
  uint64_t n = js->sup.itable_blocks * kJexInodesPerBlock;
  return static_cast<uint32_t>(std::min<uint64_t>(n, kJexMaxInodes));
}

// --- raw journal I/O ----------------------------------------------------------
//
// Journal appends and superblock reads bypass the page cache on purpose: the
// journal is written once, replayed once, and must be durable the instant the
// bio completes. Each DirectIo is one synchronous bio over the first n slots
// of the record buffer, whose completion dispatches jexfs_end_io through the
// checked indirect-call path (bio_caps granted for exactly the completion
// window). A commit is one of them, [desc | data... | commit] as one
// n+2-block bio: its sectors may become durable in any order, and replay
// discards a record whose commit block is durable before some earlier
// sector, because the commit repeats the descriptor's fields and carries the
// data checksum (JBD2's checksummed async commit). Single-block I/O
// (superblock reads, the journal superblock) uses slot 0 only.

void EndIo(JexfsState& st, kern::Bio* bio) {
  kern::Module& m = *st.m;
  auto* js = static_cast<JexSb*>(bio->bi_private);
  lxfi::Store(m, &js->io_status, bio->status);
  lxfi::Store(m, &js->io_done, js->io_done + 1);
}

// Writes slots [0, n) to blocks [block, block + n), or reads those blocks
// into those slots. Returns 0 or a negative errno.
int DirectIo(JexfsState& st, JexSb* js, uint64_t block, uint64_t n, bool write) {
  kern::Module& m = *st.m;
  lxfi::Store(m, &js->bio->sector, block);
  lxfi::Store(m, &js->bio->size, static_cast<uint32_t>(n * kJexBlockSize));
  lxfi::Store<uint8_t*>(m, &js->bio->data, js->buf);
  lxfi::Store(m, &js->bio->write, write);
  lxfi::Store(m, &js->bio->status, 0);
  lxfi::Store(m, &js->bio->end_io, m.FuncAddr("jexfs_end_io"));
  lxfi::Store<void*>(m, &js->bio->bi_private, js);
  int rc = st.api.submit_bio(js->dev, js->bio);
  if (rc == 0) {
    rc = js->io_status;
  }
  return rc;
}

// Fills slot `i` with `rec`, zero-padded to a block.
template <typename T>
void FillSlot(JexfsState& st, JexSb* js, uint64_t i, const T& rec) {
  static_assert(sizeof(T) <= kJexBlockSize);
  uint8_t blk[kJexBlockSize] = {};
  std::memcpy(blk, &rec, sizeof(rec));
  lxfi::MemCopy(*st.m, Slot(js, i), blk, kJexBlockSize);
}

// Reads `block` into slot 0 and copies its leading sizeof(T) bytes to *out.
template <typename T>
int ReadOneBlock(JexfsState& st, JexSb* js, uint64_t block, T* out) {
  int rc = DirectIo(st, js, block, 1, /*write=*/false);
  if (rc == 0) {
    std::memcpy(out, Slot(js, 0), sizeof(T));  // out is a module stack local
  }
  return rc;
}

// --- transactions -------------------------------------------------------------
//
// A transaction stages full copies of every block it will touch, in place in
// the record buffer's data slots. Commit appends [desc | data... | commit]
// to the journal with one direct bio, then applies the staged images to
// their home blocks through the page cache (dirty, durable at the next
// checkpoint). Abort just forgets the staging.

void TxAbort(JexfsState& st, JexSb* js) {
  lxfi::Store<uint64_t>(*st.m, &js->tx_n, 0);
}

// Returns (in *out) the staged image of `block`, staging it from the page
// cache first if this transaction has not touched it yet.
int TxStage(JexfsState& st, JexSb* js, uint64_t block, uint8_t** out) {
  kern::Module& m = *st.m;
  for (uint64_t i = 0; i < js->tx_n; ++i) {
    if (js->tx_home[i] == block) {
      *out = TxData(js, i);
      return 0;
    }
  }
  if (js->tx_n >= kJexMaxTxBlocks) {
    return -kern::kEnospc;
  }
  kern::CachedPage* pg = st.api.pc_bget(js->dev, block);
  if (pg == nullptr) {
    return -kern::kEio;
  }
  uint64_t i = js->tx_n;
  lxfi::Store(m, &js->tx_home[i], block);
  lxfi::MemCopy(m, TxData(js, i), pg->data, kJexBlockSize);
  st.api.pc_brelse(pg);
  lxfi::Store(m, &js->tx_n, i + 1);
  *out = TxData(js, i);
  return 0;
}

// Reads `block` as this transaction would see it: the staged image if staged,
// otherwise the cached block. `local` is a 512-byte module stack buffer.
int ReadBlockView(JexfsState& st, JexSb* js, uint64_t block, uint8_t* local) {
  for (uint64_t i = 0; i < js->tx_n; ++i) {
    if (js->tx_home[i] == block) {
      std::memcpy(local, TxData(js, i), kJexBlockSize);
      return 0;
    }
  }
  kern::CachedPage* pg = st.api.pc_bget(js->dev, block);
  if (pg == nullptr) {
    return -kern::kEio;
  }
  std::memcpy(local, pg->data, kJexBlockSize);  // reads are unrestricted
  st.api.pc_brelse(pg);
  return 0;
}

// Durability point: write every dirty cached page back, then retire the whole
// journal by bumping its epoch. Ordering makes a crash anywhere idempotent —
// before the epoch write the old records merely re-apply what pc_sync already
// made durable; after it they are ignored by replay.
int Checkpoint(JexfsState& st, JexSb* js) {
  kern::Module& m = *st.m;
  int rc = st.api.pc_sync(js->dev);
  if (rc < 0) {
    return rc;
  }
  JexJournalSuper jsb;
  jsb.magic = kJexJournalMagic;
  jsb.epoch = js->epoch + 1;
  FillSlot(st, js, 0, jsb);
  rc = DirectIo(st, js, js->sup.journal_start, 1, /*write=*/true);
  if (rc != 0) {
    return rc;
  }
  lxfi::Store(m, &js->epoch, js->epoch + 1);
  lxfi::Store(m, &js->head, js->sup.journal_start + 1);
  lxfi::Store<uint64_t>(m, &js->next_seq, 1);
  return 0;
}

int Commit(JexfsState& st, JexSb* js) {
  kern::Module& m = *st.m;
  if (js->tx_n == 0) {
    return 0;
  }
  uint64_t jend = js->sup.journal_start + js->sup.journal_blocks;
  uint64_t need = js->tx_n + 2;
  if (js->head + need > jend) {
    int rc = Checkpoint(st, js);
    if (rc != 0) {
      TxAbort(st, js);
      return rc;
    }
    if (js->head + need > jend) {
      TxAbort(st, js);
      return -kern::kEnospc;  // transaction larger than the whole journal
    }
  }
  JexJournalDesc desc;
  desc.magic = kJexDescMagic;
  desc.epoch = js->epoch;
  desc.seq = js->next_seq;
  desc.nblocks = js->tx_n;
  desc.checksum = JexChecksum(TxData(js, 0), js->tx_n);
  for (uint64_t i = 0; i < js->tx_n; ++i) {
    desc.home[i] = js->tx_home[i];
  }
  JexJournalCommit cm;
  cm.magic = kJexCommitMagic;
  cm.epoch = desc.epoch;
  cm.seq = desc.seq;
  cm.nblocks = desc.nblocks;
  cm.checksum = desc.checksum;
  // The record bio: the descriptor in slot 0, the staged data behind it and
  // the commit block last.
  FillSlot(st, js, 0, desc);
  FillSlot(st, js, 1 + js->tx_n, cm);
  int rc = DirectIo(st, js, js->head, need, /*write=*/true);
  if (rc != 0) {
    TxAbort(st, js);  // nothing applied; a torn append is discarded by replay
    return rc;
  }
  // The transaction is durable in the journal: apply the staged images to
  // their home blocks through the page cache write window.
  for (uint64_t i = 0; i < js->tx_n; ++i) {
    kern::CachedPage* pg = st.api.pc_bwrite(js->dev, js->tx_home[i]);
    if (pg == nullptr) {
      // Replay will finish the half-applied transaction at next mount.
      TxAbort(st, js);
      return -kern::kEio;
    }
    lxfi::MemCopy(m, pg->data, TxData(js, i), kJexBlockSize);
    st.api.pc_mark_dirty(pg);
    st.api.pc_bwrite_done(pg);
  }
  lxfi::Store(m, &js->head, js->head + need);
  lxfi::Store(m, &js->next_seq, js->next_seq + 1);
  lxfi::Store<uint64_t>(m, &js->tx_n, 0);
  ++st.commits;
  return 0;
}

// --- inode table and allocation bitmap ---------------------------------------

int ReadInode(JexfsState& st, JexSb* js, uint32_t idx, JexDiskInode* out) {
  uint64_t blk = js->sup.itable_start + idx / kJexInodesPerBlock;
  uint32_t off = (idx % kJexInodesPerBlock) * sizeof(JexDiskInode);
  uint8_t local[kJexBlockSize];
  int rc = ReadBlockView(st, js, blk, local);
  if (rc != 0) {
    return rc;
  }
  std::memcpy(out, local + off, sizeof(JexDiskInode));
  return 0;
}

int WriteInodeTx(JexfsState& st, JexSb* js, uint32_t idx, const JexDiskInode& di) {
  uint64_t blk = js->sup.itable_start + idx / kJexInodesPerBlock;
  uint32_t off = (idx % kJexInodesPerBlock) * sizeof(JexDiskInode);
  uint8_t* staged = nullptr;
  int rc = TxStage(st, js, blk, &staged);
  if (rc != 0) {
    return rc;
  }
  lxfi::MemCopy(*st.m, staged + off, &di, sizeof(di));
  return 0;
}

int AllocInode(JexfsState& st, JexSb* js, uint32_t* idx_out) {
  for (uint32_t idx = 1; idx < NInodes(js); ++idx) {
    JexDiskInode di;
    int rc = ReadInode(st, js, idx, &di);
    if (rc != 0) {
      return rc;
    }
    if (di.mode == 0) {
      *idx_out = idx;
      return 0;
    }
  }
  return -kern::kEnospc;
}

// Bitmap edits stage the bitmap block, mutate a local copy, and write the
// whole image back — the staged block commits atomically with the rest of
// the transaction.
int BitmapEdit(JexfsState& st, JexSb* js, uint64_t abs_start, uint64_t len, bool set,
               bool must_be_clear) {
  uint64_t ndata = js->sup.total_blocks - js->sup.data_start;
  if (abs_start < js->sup.data_start || abs_start + len > js->sup.data_start + ndata) {
    return -kern::kEnospc;
  }
  uint8_t* staged = nullptr;
  int rc = TxStage(st, js, js->sup.bitmap_start, &staged);
  if (rc != 0) {
    return rc;
  }
  uint8_t local[kJexBlockSize];
  std::memcpy(local, staged, kJexBlockSize);
  uint64_t base = abs_start - js->sup.data_start;
  for (uint64_t i = 0; i < len; ++i) {
    uint64_t b = base + i;
    bool cur = (local[b / 8] >> (b % 8)) & 1;
    if (must_be_clear && cur) {
      return -kern::kEnospc;  // extend-in-place lost: neighbour is taken
    }
    if (set) {
      local[b / 8] |= static_cast<uint8_t>(1u << (b % 8));
    } else {
      local[b / 8] &= static_cast<uint8_t>(~(1u << (b % 8)));
    }
  }
  lxfi::MemCopy(*st.m, staged, local, kJexBlockSize);
  return 0;
}

int AllocAt(JexfsState& st, JexSb* js, uint64_t abs_start, uint64_t len) {
  return BitmapEdit(st, js, abs_start, len, /*set=*/true, /*must_be_clear=*/true);
}

int FreeRun(JexfsState& st, JexSb* js, uint64_t abs_start, uint64_t len) {
  return BitmapEdit(st, js, abs_start, len, /*set=*/false, /*must_be_clear=*/false);
}

// First-fit scan for `len` consecutive free data blocks.
int AllocRun(JexfsState& st, JexSb* js, uint64_t len, uint64_t* start_out) {
  uint8_t* staged = nullptr;
  int rc = TxStage(st, js, js->sup.bitmap_start, &staged);
  if (rc != 0) {
    return rc;
  }
  uint64_t ndata = js->sup.total_blocks - js->sup.data_start;
  uint64_t run = 0;
  for (uint64_t b = 0; b < ndata; ++b) {
    bool used = (staged[b / 8] >> (b % 8)) & 1;
    run = used ? 0 : run + 1;
    if (run == len) {
      uint64_t abs = js->sup.data_start + b + 1 - len;
      rc = AllocAt(st, js, abs, len);
      if (rc == 0) {
        *start_out = abs;
      }
      return rc;
    }
  }
  return -kern::kEnospc;
}

// --- extents ------------------------------------------------------------------

uint64_t ExtentBlocks(const JexDiskInode& di) {
  uint64_t n = 0;
  for (const JexExtent& e : di.ext) {
    n += e.len;
  }
  return n;
}

// Absolute block of logical block `idx`, or 0 past the allocated extents.
uint64_t FileBlock(const JexDiskInode& di, uint64_t idx) {
  for (const JexExtent& e : di.ext) {
    if (idx < e.len) {
      return e.start + idx;
    }
    idx -= e.len;
  }
  return 0;
}

// Grows `di` (a stack-local copy; the caller writes it back via WriteInodeTx)
// to at least `need` blocks: extend the last extent in place when the
// neighbouring blocks are free, otherwise start a new extent.
int EnsureCapacity(JexfsState& st, JexSb* js, JexDiskInode* di, uint64_t need) {
  uint64_t have = ExtentBlocks(*di);
  if (have >= need) {
    return 0;
  }
  uint64_t delta = need - have;
  JexExtent* last = nullptr;
  for (JexExtent& e : di->ext) {
    if (e.len != 0) {
      last = &e;
    }
  }
  if (last != nullptr && AllocAt(st, js, last->start + last->len, delta) == 0) {
    last->len += delta;
    return 0;
  }
  for (JexExtent& e : di->ext) {
    if (e.len == 0) {
      uint64_t start = 0;
      int rc = AllocRun(st, js, delta, &start);
      if (rc != 0) {
        return rc;
      }
      e.start = start;
      e.len = delta;
      return 0;
    }
  }
  return -kern::kEnospc;  // all extent slots in use and no room to extend
}

// --- directories --------------------------------------------------------------
//
// A directory's size is its capacity (blocks * 512); free slots carry
// ino == kJexNoInode. All lookups go through the transaction-aware block
// view so an op sees its own staged edits.

int DirFindRO(JexfsState& st, JexSb* js, const JexDiskInode& dir, const char* name,
              uint32_t* ino_out) {
  for (const JexExtent& e : dir.ext) {
    for (uint64_t b = e.start; b < e.start + e.len; ++b) {
      uint8_t local[kJexBlockSize];
      int rc = ReadBlockView(st, js, b, local);
      if (rc != 0) {
        return rc;
      }
      for (uint32_t s = 0; s < kJexDirEntsPerBlock; ++s) {
        JexDirEnt ent;
        std::memcpy(&ent, local + s * sizeof(JexDirEnt), sizeof(ent));
        if (ent.ino != kJexNoInode && std::strncmp(ent.name, name, kJexNameMax + 1) == 0) {
          *ino_out = ent.ino;
          return 0;
        }
      }
    }
  }
  return -kern::kEnoent;
}

int DirIsEmpty(JexfsState& st, JexSb* js, const JexDiskInode& dir, bool* empty) {
  for (const JexExtent& e : dir.ext) {
    for (uint64_t b = e.start; b < e.start + e.len; ++b) {
      uint8_t local[kJexBlockSize];
      int rc = ReadBlockView(st, js, b, local);
      if (rc != 0) {
        return rc;
      }
      for (uint32_t s = 0; s < kJexDirEntsPerBlock; ++s) {
        uint32_t ino;
        std::memcpy(&ino, local + s * sizeof(JexDirEnt), sizeof(ino));
        if (ino != kJexNoInode) {
          *empty = false;
          return 0;
        }
      }
    }
  }
  *empty = true;
  return 0;
}

// Stages the entry `name -> child` into `dir` (whose inode image the caller
// holds in *ddi and writes back afterwards), growing the directory by one
// block if no slot is free.
int DirAdd(JexfsState& st, JexSb* js, JexDiskInode* ddi, const char* name, uint32_t child) {
  kern::Module& m = *st.m;
  size_t nlen = std::strlen(name);
  if (nlen == 0 || nlen > kJexNameMax) {
    return -kern::kEinval;
  }
  JexDirEnt ent;
  ent.ino = child;
  std::memcpy(ent.name, name, nlen + 1);
  for (const JexExtent& e : ddi->ext) {
    for (uint64_t b = e.start; b < e.start + e.len; ++b) {
      uint8_t local[kJexBlockSize];
      int rc = ReadBlockView(st, js, b, local);
      if (rc != 0) {
        return rc;
      }
      for (uint32_t s = 0; s < kJexDirEntsPerBlock; ++s) {
        uint32_t ino;
        std::memcpy(&ino, local + s * sizeof(JexDirEnt), sizeof(ino));
        if (ino == kJexNoInode) {
          uint8_t* staged = nullptr;
          rc = TxStage(st, js, b, &staged);
          if (rc != 0) {
            return rc;
          }
          lxfi::MemCopy(m, staged + s * sizeof(JexDirEnt), &ent, sizeof(ent));
          return 0;
        }
      }
    }
  }
  // No free slot: append one block of fresh (all-free) entries.
  uint64_t blocks = ExtentBlocks(*ddi);
  int rc = EnsureCapacity(st, js, ddi, blocks + 1);
  if (rc != 0) {
    return rc;
  }
  uint64_t abs = FileBlock(*ddi, blocks);
  uint8_t* staged = nullptr;
  rc = TxStage(st, js, abs, &staged);
  if (rc != 0) {
    return rc;
  }
  JexDirEnt fresh[kJexDirEntsPerBlock] = {};  // every slot ino == kJexNoInode
  fresh[0] = ent;
  static_assert(sizeof(fresh) == kJexBlockSize, "dirent block");
  lxfi::MemCopy(m, staged, fresh, sizeof(fresh));
  ddi->size = (blocks + 1) * kJexBlockSize;
  return 0;
}

int DirRemove(JexfsState& st, JexSb* js, const JexDiskInode& dir, const char* name,
              uint32_t* child_out) {
  kern::Module& m = *st.m;
  for (const JexExtent& e : dir.ext) {
    for (uint64_t b = e.start; b < e.start + e.len; ++b) {
      uint8_t local[kJexBlockSize];
      int rc = ReadBlockView(st, js, b, local);
      if (rc != 0) {
        return rc;
      }
      for (uint32_t s = 0; s < kJexDirEntsPerBlock; ++s) {
        JexDirEnt ent;
        std::memcpy(&ent, local + s * sizeof(JexDirEnt), sizeof(ent));
        if (ent.ino != kJexNoInode && std::strncmp(ent.name, name, kJexNameMax + 1) == 0) {
          uint8_t* staged = nullptr;
          rc = TxStage(st, js, b, &staged);
          if (rc != 0) {
            return rc;
          }
          JexDirEnt free_ent;  // ino = kJexNoInode, name cleared
          lxfi::MemCopy(m, staged + s * sizeof(JexDirEnt), &free_ent, sizeof(free_ent));
          *child_out = ent.ino;
          return 0;
        }
      }
    }
  }
  return -kern::kEnoent;
}

// --- kernel inode bridge ------------------------------------------------------

kern::Inode* MakeNode(JexfsState& st, const void* principal, kern::SuperBlock* sb, JexSb* js,
                      uint32_t idx, const JexDiskInode& di) {
  kern::Module& m = *st.m;
  kern::Inode* ino = st.api.iget(sb);
  if (ino == nullptr) {
    return nullptr;
  }
  lxfi::Runtime* rt = lxfi::RuntimeOf(m);
  if (rt != nullptr) {
    rt->PrincAlias(principal, ino);
  }
  JexfsData* data = DataOf(st);
  lxfi::Store<uint64_t>(m, &ino->ino, idx);  // kernel ino := inode-table slot
  lxfi::Store(m, &ino->mode, di.mode);
  // The VFS owns in-memory link counting: DInstantiate bumps nlink when the
  // dentry goes positive, so seed it one below the on-disk count.
  lxfi::Store(m, &ino->nlink, di.nlink > 0 ? di.nlink - 1 : 0);
  lxfi::Store(m, &ino->size, di.size);
  if (di.mode == kJexModeDir) {
    lxfi::Store<const kern::InodeOperations*>(m, &ino->i_op, &data->dir_iops);
    lxfi::Store<const kern::FileOperations*>(m, &ino->i_fop, nullptr);
  } else {
    lxfi::Store<const kern::InodeOperations*>(m, &ino->i_op, &data->file_iops);
    lxfi::Store<const kern::FileOperations*>(m, &ino->i_fop, &data->fops);
  }
  if (idx < kJexMaxInodes) {
    lxfi::Store(m, &js->imap[idx], ino);
  }
  return ino;
}

void DropNode(JexfsState& st, JexSb* js, uint32_t idx) {
  if (idx >= kJexMaxInodes || js->imap[idx] == nullptr) {
    return;
  }
  kern::Inode* ino = js->imap[idx];
  lxfi::Store<kern::Inode*>(*st.m, &js->imap[idx], nullptr);
  st.api.iput(ino);
}

// --- VFS operations -----------------------------------------------------------

kern::Inode* Lookup(JexfsState& st, kern::Inode* dir, kern::Dentry* dentry) {
  JexSb* js = JsOf(dir->sb);
  if (js == nullptr) {
    return nullptr;
  }
  JexDiskInode ddi;
  if (ReadInode(st, js, static_cast<uint32_t>(dir->ino), &ddi) != 0) {
    return nullptr;
  }
  uint32_t child = 0;
  if (DirFindRO(st, js, ddi, dentry->name, &child) != 0) {
    return nullptr;  // the kernel caches the bounded negative
  }
  if (child < kJexMaxInodes && js->imap[child] != nullptr) {
    return js->imap[child];
  }
  JexDiskInode cdi;
  if (ReadInode(st, js, child, &cdi) != 0 || cdi.mode == 0) {
    return nullptr;
  }
  return MakeNode(st, dir, dir->sb, js, child, cdi);
}

// Best-effort transactional undo of a created-but-uninstantiable inode.
void UndoCreate(JexfsState& st, JexSb* js, kern::Inode* dir, uint32_t idx, const char* name) {
  JexDiskInode ddi;
  if (ReadInode(st, js, static_cast<uint32_t>(dir->ino), &ddi) != 0) {
    return;
  }
  uint32_t child = 0;
  if (DirRemove(st, js, ddi, name, &child) != 0) {
    TxAbort(st, js);
    return;
  }
  JexDiskInode zero;
  if (WriteInodeTx(st, js, idx, zero) != 0 || Commit(st, js) != 0) {
    TxAbort(st, js);
  }
}

int Create(JexfsState& st, kern::Inode* dir, kern::Dentry* dentry, uint32_t mode) {
  JexSb* js = JsOf(dir->sb);
  if (js == nullptr) {
    return -kern::kEinval;
  }
  bool is_dir = (mode & kern::kIfDir) != 0;
  uint32_t idx = 0;
  int rc = AllocInode(st, js, &idx);
  if (rc != 0) {
    return rc;
  }
  JexDiskInode di;
  di.mode = is_dir ? kJexModeDir : kJexModeReg;
  di.nlink = is_dir ? 2 : 1;
  di.size = 0;
  JexDiskInode ddi;
  rc = WriteInodeTx(st, js, idx, di);
  if (rc == 0) {
    rc = ReadInode(st, js, static_cast<uint32_t>(dir->ino), &ddi);
  }
  if (rc == 0) {
    rc = DirAdd(st, js, &ddi, dentry->name, idx);
  }
  if (rc == 0) {
    rc = WriteInodeTx(st, js, static_cast<uint32_t>(dir->ino), ddi);
  }
  if (rc == 0) {
    rc = Commit(st, js);
  }
  if (rc != 0) {
    TxAbort(st, js);
    return rc;
  }
  kern::Inode* ino = MakeNode(st, dir, dir->sb, js, idx, di);
  if (ino == nullptr) {
    UndoCreate(st, js, dir, idx, dentry->name);
    return -kern::kEnomem;
  }
  rc = st.api.d_instantiate(dentry, ino);
  if (rc != 0) {
    DropNode(st, js, idx);
    UndoCreate(st, js, dir, idx, dentry->name);
    return rc;
  }
  return 0;
}

int Mkdir(JexfsState& st, kern::Inode* dir, kern::Dentry* dentry, uint32_t mode) {
  return Create(st, dir, dentry, mode | kern::kIfDir);
}

int Remove(JexfsState& st, kern::Inode* dir, kern::Dentry* dentry, bool want_dir) {
  JexSb* js = JsOf(dir->sb);
  if (js == nullptr) {
    return -kern::kEinval;
  }
  JexDiskInode ddi;
  int rc = ReadInode(st, js, static_cast<uint32_t>(dir->ino), &ddi);
  if (rc != 0) {
    return rc;
  }
  uint32_t child = 0;
  if (DirFindRO(st, js, ddi, dentry->name, &child) != 0) {
    return -kern::kEnoent;
  }
  JexDiskInode cdi;
  rc = ReadInode(st, js, child, &cdi);
  if (rc != 0) {
    return rc;
  }
  if (want_dir && cdi.mode != kJexModeDir) {
    return -kern::kEnotdir;
  }
  if (!want_dir && cdi.mode == kJexModeDir) {
    return -kern::kEisdir;
  }
  if (want_dir) {
    bool empty = false;
    rc = DirIsEmpty(st, js, cdi, &empty);
    if (rc != 0) {
      return rc;
    }
    if (!empty) {
      return -kern::kEnotempty;
    }
  }
  rc = DirRemove(st, js, ddi, dentry->name, &child);
  for (const JexExtent& e : cdi.ext) {
    if (rc == 0 && e.len != 0) {
      rc = FreeRun(st, js, e.start, e.len);
    }
  }
  if (rc == 0) {
    JexDiskInode zero;
    rc = WriteInodeTx(st, js, child, zero);
  }
  if (rc == 0) {
    rc = Commit(st, js);
  }
  if (rc != 0) {
    TxAbort(st, js);
    return rc;
  }
  DropNode(st, js, child);
  return 0;
}

int Unlink(JexfsState& st, kern::Inode* dir, kern::Dentry* dentry) {
  return Remove(st, dir, dentry, /*want_dir=*/false);
}

int Rmdir(JexfsState& st, kern::Inode* dir, kern::Dentry* dentry) {
  return Remove(st, dir, dentry, /*want_dir=*/true);
}

// One transaction moves the entry: remove from the old directory, add to the
// new one. The kernel's dcache rename (seqlock-correct d_move) guarantees the
// source is a positive non-directory and the destination name is free.
int Rename(JexfsState& st, kern::Inode* olddir, kern::Dentry* odent, kern::Inode* newdir,
           kern::Dentry* ndent) {
  JexSb* js = JsOf(olddir->sb);
  if (js == nullptr) {
    return -kern::kEinval;
  }
  JexDiskInode oddi;
  int rc = ReadInode(st, js, static_cast<uint32_t>(olddir->ino), &oddi);
  if (rc != 0) {
    return rc;
  }
  uint32_t child = 0;
  rc = DirRemove(st, js, oddi, odent->name, &child);
  JexDiskInode nddi;
  if (rc == 0) {
    rc = ReadInode(st, js, static_cast<uint32_t>(newdir->ino), &nddi);
  }
  if (rc == 0) {
    rc = DirAdd(st, js, &nddi, ndent->name, child);
  }
  if (rc == 0) {
    rc = WriteInodeTx(st, js, static_cast<uint32_t>(newdir->ino), nddi);
  }
  if (rc == 0) {
    rc = Commit(st, js);
  }
  if (rc != 0) {
    TxAbort(st, js);
  }
  return rc;
}

int Getattr(JexfsState& st, kern::Inode* inode, kern::VfsStat* out) {
  kern::Module& m = *st.m;
  lxfi::Store(m, &out->ino, inode->ino);
  lxfi::Store(m, &out->mode, inode->mode);
  lxfi::Store(m, &out->nlink, inode->nlink);
  lxfi::Store(m, &out->size, inode->size);
  return 0;
}

int Open(JexfsState& st, kern::Inode* inode, kern::File* file) {
  lxfi::Runtime* rt = lxfi::RuntimeOf(*st.m);
  if (rt != nullptr) {
    rt->PrincAlias(inode, file);
  }
  return 0;
}

int Release(JexfsState& st, kern::Inode* inode, kern::File* file) { return 0; }

int64_t Read(JexfsState& st, kern::File* file, uintptr_t ubuf, uint64_t n, uint64_t pos) {
  kern::Inode* ino = file->inode;
  JexSb* js = JsOf(ino->sb);
  if (js == nullptr) {
    return -kern::kEinval;
  }
  if ((ino->mode & kern::kIfDir) != 0) {
    return -kern::kEisdir;
  }
  JexDiskInode di;
  int rc = ReadInode(st, js, static_cast<uint32_t>(ino->ino), &di);
  if (rc != 0) {
    return rc;
  }
  if (n == 0 || pos >= di.size) {
    return 0;
  }
  n = std::min(n, di.size - pos);
  uint64_t done = 0;
  while (done < n) {
    uint64_t off = pos + done;
    uint64_t inoff = off % kJexBlockSize;
    uint64_t chunk = std::min<uint64_t>(n - done, kJexBlockSize - inoff);
    uint64_t abs = FileBlock(di, off / kJexBlockSize);
    if (abs == 0) {
      return -kern::kEio;  // size within extents was checked; corrupt inode
    }
    uint8_t local[kJexBlockSize];
    rc = ReadBlockView(st, js, abs, local);
    if (rc != 0) {
      return rc;
    }
    rc = st.api.copy_to_user(ubuf + done, local + inoff, chunk);
    if (rc != 0) {
      return rc;
    }
    done += chunk;
  }
  return static_cast<int64_t>(done);
}

int64_t Write(JexfsState& st, kern::File* file, uintptr_t ubuf, uint64_t n, uint64_t pos) {
  kern::Module& m = *st.m;
  kern::Inode* ino = file->inode;
  JexSb* js = JsOf(ino->sb);
  if (js == nullptr) {
    return -kern::kEinval;
  }
  if ((ino->mode & kern::kIfDir) != 0) {
    return -kern::kEisdir;
  }
  if (n == 0) {
    return 0;
  }
  uint64_t end = pos + n;
  // One transaction covers the whole write: its data blocks plus the inode
  // and bitmap blocks must fit the staging area.
  if (end < pos || end / kJexBlockSize - pos / kJexBlockSize + 1 > kJexMaxTxBlocks - 4) {
    return -kern::kEinval;
  }
  JexDiskInode di;
  int rc = ReadInode(st, js, static_cast<uint32_t>(ino->ino), &di);
  if (rc != 0) {
    return rc;
  }
  rc = EnsureCapacity(st, js, &di, (end + kJexBlockSize - 1) / kJexBlockSize);
  if (rc != 0) {
    TxAbort(st, js);
    return rc;
  }
  uint64_t done = 0;
  while (rc == 0 && done < n) {
    uint64_t off = pos + done;
    uint64_t inoff = off % kJexBlockSize;
    uint64_t chunk = std::min<uint64_t>(n - done, kJexBlockSize - inoff);
    uint64_t abs = FileBlock(di, off / kJexBlockSize);
    uint8_t* staged = nullptr;
    rc = abs != 0 ? TxStage(st, js, abs, &staged) : -kern::kEio;
    if (rc == 0) {
      // The checked uaccess path writes straight into the staged image.
      rc = st.api.copy_from_user(staged + inoff, ubuf + done, chunk);
    }
    done += chunk;
  }
  if (rc == 0) {
    if (end > di.size) {
      di.size = end;
    }
    rc = WriteInodeTx(st, js, static_cast<uint32_t>(ino->ino), di);
  }
  if (rc == 0) {
    rc = Commit(st, js);
  }
  if (rc != 0) {
    TxAbort(st, js);
    return rc;
  }
  if (end > ino->size) {
    lxfi::Store(m, &ino->size, end);
  }
  return static_cast<int64_t>(n);
}

int Fsync(JexfsState& st, kern::File* file) {
  JexSb* js = JsOf(file->inode->sb);
  if (js == nullptr) {
    return -kern::kEinval;
  }
  return Checkpoint(st, js);
}

int StatFs(JexfsState& st, kern::SuperBlock* sb, kern::VfsStatFs* out) {
  kern::Module& m = *st.m;
  JexSb* js = JsOf(sb);
  if (js == nullptr) {
    return -kern::kEinval;
  }
  uint64_t files = 0;
  uint64_t bytes = 0;
  for (uint32_t idx = 0; idx < NInodes(js); ++idx) {
    JexDiskInode di;
    if (ReadInode(st, js, idx, &di) != 0) {
      return -kern::kEio;
    }
    if (di.mode == kJexModeReg) {
      ++files;
      bytes += di.size;
    }
  }
  lxfi::Store(m, &out->files, files);
  lxfi::Store(m, &out->bytes, bytes);
  char name[sizeof(out->fsname)] = {};
  std::strncpy(name, st.m->def().name.c_str(), sizeof(name) - 1);
  lxfi::MemCopy(m, out->fsname, name, sizeof(name));
  return 0;
}

// --- mount / unmount ----------------------------------------------------------

// Frees a (possibly partially constructed) JexSb and its dedicated bio and
// record allocations.
void FreeJs(JexfsState& st, JexSb* js) {
  if (js->bio != nullptr) {
    st.api.kfree(js->bio);
  }
  if (js->buf != nullptr) {
    st.api.kfree(js->buf);
  }
  st.api.kfree(js);
}

int Mount(JexfsState& st, kern::FileSystemType* fstype, kern::SuperBlock* sb,
          kern::Dentry* root) {
  kern::Module& m = *st.m;
  JexfsData* data = DataOf(st);
  kern::BlockDevice* dev = st.api.dm_get_device(st.device.c_str());
  if (dev == nullptr) {
    return -kern::kEnodev;
  }
  auto* js = static_cast<JexSb*>(st.api.kmalloc(sizeof(JexSb)));
  if (js == nullptr) {
    return -kern::kEnomem;
  }
  auto* bio = static_cast<kern::Bio*>(st.api.kmalloc(sizeof(kern::Bio)));
  auto* buf = static_cast<uint8_t*>(st.api.kmalloc(kJexRecordSlots * kJexBlockSize));
  lxfi::Store(m, &js->bio, bio);
  lxfi::Store(m, &js->buf, buf);
  if (bio == nullptr || buf == nullptr) {
    FreeJs(st, js);
    return -kern::kEnomem;
  }
  lxfi::Runtime* rt = lxfi::RuntimeOf(m);
  if (rt != nullptr) {
    // The record slots past the last bio stay writable only through this
    // principal's heap-partition span (see JexSb). A record that fell back
    // to the shared heap (partitions off, every slot taken, or this slot
    // exhausted) would fault on the next transaction's staging: refuse the
    // mount instead.
    lxfi::Principal* self = rt->CurrentPrincipal();
    if (self == nullptr || !self->ArenaContains(reinterpret_cast<uintptr_t>(buf),
                                                kJexRecordSlots * kJexBlockSize)) {
      FreeJs(st, js);
      return -kern::kEnomem;
    }
    // The journal bio must resolve to this mount's principal when its
    // completion dispatches (the end_io annotation is principal(bio)).
    rt->PrincAlias(sb, bio);
  }
  lxfi::Store(m, &js->dev, dev);
  st.api.pc_invalidate(dev);  // drop any stale pages from a prior mount

  JexDiskSuper sup;
  int rc = ReadOneBlock(st, js, 0, &sup);
  if (rc != 0) {
    FreeJs(st, js);
    return rc;
  }
  if (sup.magic != kJexMagic || sup.version != kJexVersion ||
      sup.total_blocks > dev->sectors || sup.data_start >= sup.total_blocks ||
      sup.itable_start != 1 || sup.bitmap_start != sup.itable_start + sup.itable_blocks ||
      sup.journal_start != sup.bitmap_start + sup.bitmap_blocks ||
      sup.data_start != sup.journal_start + sup.journal_blocks || sup.journal_blocks < 3 ||
      sup.total_blocks - sup.data_start > sup.bitmap_blocks * kJexBlockSize * 8) {
    FreeJs(st, js);
    return -kern::kEinval;
  }
  lxfi::MemCopy(m, &js->sup, &sup, sizeof(sup));

  JexJournalSuper jsb;
  rc = ReadOneBlock(st, js, sup.journal_start, &jsb);
  if (rc != 0) {
    FreeJs(st, js);
    return rc;
  }
  if (jsb.magic != kJexJournalMagic || jsb.epoch == 0) {
    FreeJs(st, js);
    return -kern::kEinval;
  }
  lxfi::Store(m, &js->epoch, jsb.epoch);

  // Journal replay: the same walk JexReplay performs on host images, reading
  // the way Commit writes: one bio fills the record slots from the journal
  // at j, which covers the longest [desc | data... | commit] record, so the
  // checksum runs in place over the contiguous data slots. Applies go
  // through the page cache.
  uint64_t jend = sup.journal_start + sup.journal_blocks;
  uint64_t j = sup.journal_start + 1;
  uint64_t expect_seq = 0;
  uint64_t applied = 0;
  while (j + 2 <= jend) {
    if (DirectIo(st, js, j, std::min(kJexRecordSlots, jend - j), /*write=*/false) != 0) {
      break;
    }
    JexJournalDesc desc;
    std::memcpy(&desc, Slot(js, 0), sizeof(desc));
    if (desc.magic != kJexDescMagic || desc.epoch != jsb.epoch || desc.nblocks == 0 ||
        desc.nblocks > kJexMaxTxBlocks || j + 1 + desc.nblocks + 1 > jend ||
        (expect_seq != 0 && desc.seq != expect_seq)) {
      break;
    }
    bool ok = true;
    for (uint64_t i = 0; ok && i < desc.nblocks; ++i) {
      uint64_t home = desc.home[i];
      ok = home != 0 && home < sup.total_blocks &&
           !(home >= sup.journal_start && home < jend);
    }
    JexJournalCommit cm;
    std::memcpy(&cm, Slot(js, 1 + desc.nblocks), sizeof(cm));
    if (!ok || cm.magic != kJexCommitMagic || cm.epoch != desc.epoch || cm.seq != desc.seq ||
        cm.nblocks != desc.nblocks || cm.checksum != desc.checksum ||
        JexChecksum(TxData(js, 0), desc.nblocks) != desc.checksum) {
      break;  // torn transaction: discard it and everything after
    }
    for (uint64_t i = 0; i < desc.nblocks; ++i) {
      kern::CachedPage* pg = st.api.pc_bwrite(dev, desc.home[i]);
      if (pg == nullptr) {
        FreeJs(st, js);
        return -kern::kEio;
      }
      lxfi::MemCopy(m, pg->data, TxData(js, i), kJexBlockSize);
      st.api.pc_mark_dirty(pg);
      st.api.pc_bwrite_done(pg);
    }
    ++applied;
    expect_seq = desc.seq + 1;
    j += 2 + desc.nblocks;
  }
  st.replays += applied;
  lxfi::Store<uint64_t>(m, &js->tx_n, 0);
  lxfi::Store(m, &js->head, j);
  lxfi::Store(m, &js->next_seq, expect_seq != 0 ? expect_seq : 1);
  // Make the replay durable and retire the journal before serving any op.
  rc = Checkpoint(st, js);
  if (rc != 0) {
    FreeJs(st, js);
    return rc;
  }

  lxfi::Store<const kern::SuperOperations*>(m, &sb->s_op, &data->sops);
  lxfi::Store<void*>(m, &sb->s_fs_info, js);
  JexDiskInode rdi;
  rc = ReadInode(st, js, 0, &rdi);
  if (rc == 0 && rdi.mode != kJexModeDir) {
    rc = -kern::kEinval;
  }
  kern::Inode* rino = rc == 0 ? MakeNode(st, sb, sb, js, 0, rdi) : nullptr;
  if (rino == nullptr) {
    lxfi::Store<void*>(m, &sb->s_fs_info, nullptr);
    FreeJs(st, js);
    return rc != 0 ? rc : -kern::kEnomem;
  }
  rc = st.api.d_instantiate(root, rino);
  if (rc != 0) {
    DropNode(st, js, 0);
    lxfi::Store<void*>(m, &sb->s_fs_info, nullptr);
    FreeJs(st, js);
    return rc;
  }
  return 0;
}

void KillSb(JexfsState& st, kern::FileSystemType* fstype, kern::SuperBlock* sb) {
  kern::Module& m = *st.m;
  JexSb* js = JsOf(sb);
  if (js == nullptr) {
    return;
  }
  Checkpoint(st, js);  // best-effort: flush dirty pages, retire the journal
  for (uint32_t idx = 0; idx < kJexMaxInodes; ++idx) {
    DropNode(st, js, idx);
  }
  st.api.pc_invalidate(js->dev);
  lxfi::Store<void*>(m, &sb->s_fs_info, nullptr);
  FreeJs(st, js);
}

}  // namespace

kern::ModuleDef JexfsModuleDef(const char* fs_name, const char* device) {
  auto st = std::make_shared<JexfsState>();
  st->device = device;
  kern::ModuleDef def;
  def.name = fs_name;
  def.data_size = sizeof(JexfsData);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kRegisterFilesystem,
                 kern::kUnregisterFilesystem, kern::kIget, kern::kIput, kern::kDInstantiate,
                 kern::kCopyFromUser, kern::kCopyToUser, kern::kSubmitBio, kern::kDmGetDevice,
                 kern::kPcBget, kern::kPcBrelse, kern::kPcBwrite, kern::kPcBwriteDone,
                 kern::kPcMarkDirty, kern::kPcSync, kern::kPcInvalidate};
  def.functions = {
      lxfi::DeclareFunction(
          "jexfs_mount", kern::kFsMount,
          [st](kern::FileSystemType* t, kern::SuperBlock* sb, kern::Dentry* root) {
            return Mount(*st, t, sb, root);
          }),
      lxfi::DeclareFunction(
          "jexfs_kill_sb", kern::kFsKillSb,
          [st](kern::FileSystemType* t, kern::SuperBlock* sb) { KillSb(*st, t, sb); }),
      lxfi::DeclareFunction("jexfs_end_io", kern::kBioEndIo,
                            [st](kern::Bio* bio) { EndIo(*st, bio); }),
      lxfi::DeclareFunction(
          "jexfs_statfs", kern::kSuperStatfs,
          [st](kern::SuperBlock* sb, kern::VfsStatFs* out) { return StatFs(*st, sb, out); }),
      lxfi::DeclareFunction(
          "jexfs_lookup", kern::kInodeLookup,
          [st](kern::Inode* dir, kern::Dentry* d) { return Lookup(*st, dir, d); }),
      lxfi::DeclareFunction("jexfs_create", kern::kInodeCreate,
                            [st](kern::Inode* dir, kern::Dentry* d, uint32_t mode) {
                              return Create(*st, dir, d, mode);
                            }),
      lxfi::DeclareFunction("jexfs_mkdir", kern::kInodeMkdir,
                            [st](kern::Inode* dir, kern::Dentry* d, uint32_t mode) {
                              return Mkdir(*st, dir, d, mode);
                            }),
      lxfi::DeclareFunction(
          "jexfs_unlink", kern::kInodeUnlink,
          [st](kern::Inode* dir, kern::Dentry* d) { return Unlink(*st, dir, d); }),
      lxfi::DeclareFunction("jexfs_rmdir", kern::kInodeRmdir,
                            [st](kern::Inode* dir, kern::Dentry* d) { return Rmdir(*st, dir, d); }),
      lxfi::DeclareFunction(
          "jexfs_rename", kern::kInodeRename,
          [st](kern::Inode* od, kern::Dentry* odent, kern::Inode* nd, kern::Dentry* ndent) {
            return Rename(*st, od, odent, nd, ndent);
          }),
      lxfi::DeclareFunction(
          "jexfs_getattr", kern::kInodeGetattr,
          [st](kern::Inode* ino, kern::VfsStat* out) { return Getattr(*st, ino, out); }),
      lxfi::DeclareFunction("jexfs_open", kern::kFileOpen,
                            [st](kern::Inode* ino, kern::File* f) { return Open(*st, ino, f); }),
      lxfi::DeclareFunction("jexfs_release", kern::kFileRelease,
                            [st](kern::Inode* ino, kern::File* f) { return Release(*st, ino, f); }),
      lxfi::DeclareFunction("jexfs_read", kern::kFileRead,
                            [st](kern::File* f, uintptr_t ubuf, uint64_t n, uint64_t pos) {
                              return Read(*st, f, ubuf, n, pos);
                            }),
      lxfi::DeclareFunction("jexfs_write", kern::kFileWrite,
                            [st](kern::File* f, uintptr_t ubuf, uint64_t n, uint64_t pos) {
                              return Write(*st, f, ubuf, n, pos);
                            }),
      lxfi::DeclareFunction("jexfs_fsync", kern::kFileFsync,
                            [st](kern::File* f) { return Fsync(*st, f); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->api.kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->api.kfree = lxfi::GetImport(m, kern::kKfree);
    st->api.register_filesystem = lxfi::GetImport(m, kern::kRegisterFilesystem);
    st->api.unregister_filesystem = lxfi::GetImport(m, kern::kUnregisterFilesystem);
    st->api.iget = lxfi::GetImport(m, kern::kIget);
    st->api.iput = lxfi::GetImport(m, kern::kIput);
    st->api.d_instantiate = lxfi::GetImport(m, kern::kDInstantiate);
    st->api.copy_from_user = lxfi::GetImport(m, kern::kCopyFromUser);
    st->api.copy_to_user = lxfi::GetImport(m, kern::kCopyToUser);
    st->api.submit_bio = lxfi::GetImport(m, kern::kSubmitBio);
    st->api.dm_get_device = lxfi::GetImport(m, kern::kDmGetDevice);
    st->api.pc_bget = lxfi::GetImport(m, kern::kPcBget);
    st->api.pc_brelse = lxfi::GetImport(m, kern::kPcBrelse);
    st->api.pc_bwrite = lxfi::GetImport(m, kern::kPcBwrite);
    st->api.pc_bwrite_done = lxfi::GetImport(m, kern::kPcBwriteDone);
    st->api.pc_mark_dirty = lxfi::GetImport(m, kern::kPcMarkDirty);
    st->api.pc_sync = lxfi::GetImport(m, kern::kPcSync);
    st->api.pc_invalidate = lxfi::GetImport(m, kern::kPcInvalidate);

    auto* data = static_cast<JexfsData*>(m.data());
    lxfi::Store(m, &data->sops.statfs, m.FuncAddr("jexfs_statfs"));
    lxfi::Store(m, &data->dir_iops.lookup, m.FuncAddr("jexfs_lookup"));
    lxfi::Store(m, &data->dir_iops.create, m.FuncAddr("jexfs_create"));
    lxfi::Store(m, &data->dir_iops.mkdir, m.FuncAddr("jexfs_mkdir"));
    lxfi::Store(m, &data->dir_iops.unlink, m.FuncAddr("jexfs_unlink"));
    lxfi::Store(m, &data->dir_iops.rmdir, m.FuncAddr("jexfs_rmdir"));
    lxfi::Store(m, &data->dir_iops.rename, m.FuncAddr("jexfs_rename"));
    lxfi::Store(m, &data->dir_iops.getattr, m.FuncAddr("jexfs_getattr"));
    lxfi::Store(m, &data->file_iops.getattr, m.FuncAddr("jexfs_getattr"));
    lxfi::Store(m, &data->fops.open, m.FuncAddr("jexfs_open"));
    lxfi::Store(m, &data->fops.release, m.FuncAddr("jexfs_release"));
    lxfi::Store(m, &data->fops.read, m.FuncAddr("jexfs_read"));
    lxfi::Store(m, &data->fops.write, m.FuncAddr("jexfs_write"));
    lxfi::Store(m, &data->fops.fsync, m.FuncAddr("jexfs_fsync"));

    kern::FileSystemType* fstype = &data->fstype;
    st->fstype = fstype;
    lxfi::Store(m, &fstype->name, static_cast<const char*>(m.def().name.c_str()));
    lxfi::Store(m, &fstype->mount, m.FuncAddr("jexfs_mount"));
    lxfi::Store(m, &fstype->kill_sb, m.FuncAddr("jexfs_kill_sb"));
    lxfi::Store(m, &fstype->module, &m);
    int rc = st->api.register_filesystem(fstype);
    if (rc != 0) {
      st->fstype = nullptr;
    }
    return rc;
  };
  def.exit_fn = [st](kern::Module& m) {
    if (st->fstype != nullptr && st->api.unregister_filesystem(st->fstype) == 0) {
      st->fstype = nullptr;
    }
  };
  return def;
}

std::shared_ptr<JexfsState> GetJexfs(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<JexfsState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods
