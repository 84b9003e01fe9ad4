#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gw2v::sim {

Network::Network(unsigned numHosts)
    : numHosts_(numHosts), mailboxes_(numHosts), stats_(numHosts) {
  if (numHosts == 0) throw std::invalid_argument("Network: numHosts must be >= 1");
}

void Network::send(HostId src, HostId dst, int tag, std::vector<std::uint8_t> payload) {
  assert(src < numHosts_ && dst < numHosts_);
  if (aborted()) throw comm::NetworkAborted();
  stats_[src].recordSend(payload.size() + kHeaderBytes);
  Mailbox& mb = mailboxes_[dst];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.messages.push_back(Message{src, tag, std::move(payload)});
  }
  mb.arrivals.notify();
}

template <typename Match>
Network::Message Network::take(HostId dst, Match match) {
  Mailbox& mb = mailboxes_[dst];
  std::unique_lock<std::mutex> lock(mb.mutex);
  for (;;) {
    // Read the count before the abort check and the scan: a push or an
    // abort() after them bumps it past `seen`, so the wait cannot miss it.
    const std::uint32_t seen = mb.arrivals.read();
    if (aborted()) throw comm::NetworkAborted();
    const auto it = std::find_if(mb.messages.begin(), mb.messages.end(), match);
    if (it != mb.messages.end()) {
      Message m = std::move(*it);
      mb.messages.erase(it);
      stats_[dst].recordReceive(m.payload.size() + kHeaderBytes);
      return m;
    }
    lock.unlock();
    mb.arrivals.wait(seen);
    lock.lock();
  }
}

std::vector<std::uint8_t> Network::recv(HostId dst, HostId src, int tag) {
  assert(dst < numHosts_ && src < numHosts_);
  return take(dst, [&](const Message& m) { return m.src == src && m.tag == tag; }).payload;
}

std::pair<HostId, std::vector<std::uint8_t>> Network::recvAny(HostId dst, int tag) {
  assert(dst < numHosts_);
  Message m = take(dst, [&](const Message& msg) { return msg.tag == tag; });
  return {m.src, std::move(m.payload)};
}

void Network::barrier(HostId /*host*/) {
  std::unique_lock<std::mutex> lock(barrierMutex_);
  if (aborted()) throw comm::NetworkAborted();
  const std::uint64_t gen = barrierGeneration_;
  if (++barrierCount_ == numHosts_) {
    barrierCount_ = 0;
    ++barrierGeneration_;
    barrierCv_.notify_all();
  } else {
    barrierCv_.wait(lock, [&] { return barrierGeneration_ != gen || aborted(); });
    if (barrierGeneration_ == gen && aborted()) {
      // Leave the count consistent for any post-mortem inspection; the run
      // is over either way.
      --barrierCount_;
      throw comm::NetworkAborted();
    }
  }
}

void Network::registerTagRange(int lo, int hi, const char* owner) {
  if (lo >= hi) throw std::logic_error("registerTagRange: empty range");
  std::lock_guard<std::mutex> lock(tagRangeMutex_);
  for (const TagRange& r : tagRanges_) {
    const bool overlaps = lo < r.hi && r.lo < hi;
    if (r.owner == owner) {
      if (r.lo == lo && r.hi == hi) return;  // same subsystem, same block: fine
      if (overlaps)
        throw std::logic_error(std::string("registerTagRange: owner '") + owner +
                               "' re-registered with a different overlapping range");
      continue;  // one owner may hold several disjoint blocks
    }
    if (overlaps)
      throw std::logic_error(std::string("registerTagRange: [") + std::to_string(lo) + ", " +
                             std::to_string(hi) + ") for '" + owner + "' collides with [" +
                             std::to_string(r.lo) + ", " + std::to_string(r.hi) + ") owned by '" +
                             r.owner + "'");
  }
  tagRanges_.push_back(TagRange{lo, hi, owner});
}

void Network::abort() noexcept {
  aborted_.store(true, std::memory_order_release);
  for (auto& mb : mailboxes_) mb.arrivals.notify();
  {
    std::lock_guard<std::mutex> lock(barrierMutex_);
    barrierCv_.notify_all();
  }
}

}  // namespace gw2v::sim
