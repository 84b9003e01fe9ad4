#!/bin/bash
# Sanitizer build + test run. Catches the class of bug the serializer's
# misaligned-view fix closed (UB reinterpret casts), data races surfacing as
# heap errors, and leaks in the collective layer's payload plumbing.
#
# Usage: ci/sanitize.sh [build-dir] [sanitizer-list]
#   ci/sanitize.sh                      # ASan+UBSan, full suite (default)
#   ci/sanitize.sh build-tsan thread    # TSan, race-free test selection
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
SANITIZE="${2:-address,undefined}"
cmake -S . -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGW2V_SANITIZE="$SANITIZE" \
  -DGW2V_NATIVE_ARCH=OFF
cmake --build "$BUILD_DIR" -j"$(nproc)"

if [[ "$SANITIZE" == *thread* ]]; then
  # Multi-threaded Hogwild training races on model rows BY DESIGN (the same
  # benign lost-update semantics as word2vec.c, documented on
  # model::EmbeddingTable), so those tests are excluded — any new racy-by-
  # design e2e test must carry "Hogwild" in its name. Everything else —
  # including the trainer -> DeltaLog first-touch capture -> SyncEngine chain,
  # the parallel sync path (SyncMt.*: row-disjoint mt updates + parallel
  # pack/fold/apply at threads {2,4}), the concurrent
  # model/bitvector tests, and the async parameter server (PsTrain.*: one
  # thread per rank pushing/serving concurrently; each rank's model is
  # thread-private and VirtualTimeBoard stamps are atomics, so the async
  # push path must be race-free, not benignly racy), and the streaming
  # corpus rings (Streaming.* / StreamTrain.*: one producer thread per
  # shard publishing chunks under the ring mutex while trainer hosts
  # drain them; epoch replay and destructor shutdown cross generations),
  # and the trainer goldens (SyncRegression.*: every trainer that drives
  # the SGNS edge stream, at one worker thread per host, plus the async
  # PS with one thread per rank), and the per-pair kernel oracle
  # (KernelOracle.*: sgnsStep/hsStep/cbowStep against their unfused loops
  # at every SIMD tier, single-threaded), and the receive-window test and
  # the modelled-comm and traffic golden
  # (Network.ReceiveCountsInTheDrainingWindow, ModelledCommGolden.*: one
  # thread per host; a message's receive is credited by the receiving
  # thread when it drains it, and each host's charges are added on its own
  # thread), and the serve decoders (ServeMalformed.* /
  # ServeMalformedControl.*: a hand-built rank 0 and a real worker on
  # separate host threads, a rejected round aborting the fabric under the
  # blocked gather; ServeMalformedReply.* / ServeMalformedReplyControl.*: a
  # real rank-0 front-end whose client thread leads the round against a
  # hand-built rank 1), and the serve round leader (ServeQueryEngine.*:
  # client threads hand the lead of each round to one another under the
  # queue mutex while the rank-0 host thread waits in run(), including the
  # concurrent-client, shutdown and worker-death cases), and the fabric's
  # spin-then-park wait (Network.* / Collectives.* / RankContext.*: a
  # receiver reads its mailbox's arrival count under the mailbox mutex,
  # spins on it outside the lock, then parks in std::atomic::wait; the
  # payload itself only ever crosses under the mutex) — must be race-free.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" -E 'Hogwild'
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
fi

# Stress the snapshot hot-swap path under the sanitizers: many more
# publish/pin races than the default run, so lifetime bugs in the
# hazard-pointer reclamation surface as heap-use-after-free (ASan) or
# races on the hazard slots (TSan).
GW2V_HOTSWAP_ITERS=2000 ctest --test-dir "$BUILD_DIR" -R 'Serve' --output-on-failure

# Stress the serve round leader and the fabric's mailboxes the same way: a
# lost wake-up (in handing the lead of a round from one client thread to the
# next, or in a mailbox's spin-then-park wait) or a race surfaces as a hang,
# a wrong answer or a sanitizer report within a few repeats.
ctest --test-dir "$BUILD_DIR" \
  -R 'ServeQueryEngine|ServeMalformed|Network\.|Collectives\.|RankContext\.' \
  --output-on-failure --repeat until-fail:20

# Out-of-core spill files (src/store/) are scratch state: the store tests
# write *.blocks under the gtest temp dir and clean up after themselves, but
# an aborted sanitizer run can leave them (plus .tmp staging files) behind.
# Sweep any strays so repeated CI runs on a persistent runner don't
# accumulate spill data.
rm -rf "${TMPDIR:-/tmp}"/bf_*.blocks* "${TMPDIR:-/tmp}"/bc_*.blocks* \
       "${TMPDIR:-/tmp}"/st_* "${TMPDIR:-/tmp}"/store_train_* 2>/dev/null || true
