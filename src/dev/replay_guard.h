// ReplayGuard: the server side of at-most-once request execution.
//
// The RPC layer may retransmit, and the interconnect may duplicate; a device
// dedups inbound requests by (requester, request id) over a bounded window so
// non-idempotent handlers (alloc, open) never execute twice. A duplicate of an
// already-answered request gets the cached response; a duplicate of one still
// being handled is dropped.
//
// The window is one FIFO of kWindow keys shared by every source: the key
// admitted longest ago is evicted first. Storage is a ring of kWindow slots
// (key + cached response) and an open-addressed index from key to slot with
// linear probing and backward-shift deletion. Admitting, answering and
// evicting are O(1); admitting and evicting allocate nothing once the storage
// exists, and answering copies the response into its slot. Index cells
// carry their key, so a probe reads one dense array and never the ring. The
// storage is allocated on the first admission, since most devices never serve
// a request, and ring slots are constructed as they are first used.
#ifndef SRC_DEV_REPLAY_GUARD_H_
#define SRC_DEV_REPLAY_GUARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/types.h"
#include "src/proto/message.h"

namespace lastcpu::dev {

class ReplayGuard {
 public:
  static constexpr size_t kWindow = 256;
  // Index cells: a power of two at least twice the window keeps probe runs short.
  static constexpr size_t kIndexSize = 2 * kWindow;

  struct Key {
    DeviceId src;
    RequestId id;
    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Entry {
    Key key;
    bool answered = false;
    proto::Message response;  // meaningful only when answered
  };

  // Admits request `key`. Returns nullptr when the key is new: it takes the
  // window's newest slot (evicting the oldest key once the window is full) and
  // its handler may run. Otherwise the key is a duplicate and the returned
  // entry says whether it was answered, and with what.
  const Entry* Admit(Key key);

  // Remembers `response` for replay. It is keyed by (response.dst,
  // response.request_id), the request it answers; only the first answer to a
  // key still in the window is kept.
  void Answer(const proto::Message& response);

  // Forgets every key (device reset).
  void Clear();

  size_t size() const { return slots_.size(); }

  // The index cell where `key`'s probe sequence starts.
  static size_t Home(Key key);

 private:
  static constexpr uint16_t kEmptyCell = UINT16_MAX;

  struct Cell {
    Key key;
    uint16_t slot = kEmptyCell;
  };

  // Index cell holding `key`, or kIndexSize if it is not in the window.
  size_t FindCell(Key key) const;
  void EraseCell(size_t cell);

  std::vector<Entry> slots_;  // ring: grows to kWindow, then wraps
  std::vector<Cell> index_;   // kIndexSize cells once built
  size_t next_ = 0;           // ring slot the next admission takes
};

}  // namespace lastcpu::dev

#endif  // SRC_DEV_REPLAY_GUARD_H_
