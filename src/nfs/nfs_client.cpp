#include "nfs/nfs_client.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/tracing.hpp"
#include "nfs/wire.hpp"

namespace kosha::nfs {

NfsClient::NfsClient(net::SimNetwork* network, const ServerDirectory* directory,
                     net::HostId self, RetryPolicy retry, std::uint64_t jitter_seed,
                     std::uint64_t boot)
    : network_(network),
      directory_(directory),
      self_(self),
      boot_(boot),
      retry_(retry),
      jitter_rng_(jitter_seed ^ (0x9E3779B97F4A7C15ull * (self + 1))) {
  assert(network_ != nullptr && directory_ != nullptr);
}

SimDuration NfsClient::backoff_duration(unsigned attempt) {
  return retry_.jittered_backoff(attempt, jitter_rng_);
}

NfsClient::ProcMetrics& NfsClient::proc_metrics(NfsProc proc) {
  ProcMetrics& pm = proc_metrics_[proc_slot(proc)];
  if (!pm.resolved) {
    MetricsRegistry* metrics = network_->metrics();
    const std::string base = std::string("nfs.client.") + proc_name(proc);
    pm.latency = metrics->histogram(base + ".latency_us");
    pm.ok = metrics->counter(base + ".ok");
    pm.error = metrics->counter(base + ".error");
    pm.resolved = true;
  }
  return pm;
}

RpcContext NfsClient::rpc_ctx(std::uint32_t xid) const {
  RpcContext ctx{self_, xid, boot_};
  if (const Tracer* tracer = network_->tracer(); tracer != nullptr && tracer->enabled()) {
    ctx.trace = tracer->current();
  }
  // Zero unless koshad stamped an op budget: deadline propagation costs a
  // copy of an always-present field, nothing else.
  ctx.deadline = op_deadline_;
  return ctx;
}

CircuitBreaker* NfsClient::breaker_for(net::HostId server) {
  if (!overload_.enabled || overload_.breaker_threshold == 0) return nullptr;
  auto it = breakers_.find(server);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(server,
                      CircuitBreaker(overload_.breaker_threshold, overload_.breaker_cooldown))
             .first;
  }
  return &it->second;
}

OverloadClientStats NfsClient::overload_stats() const {
  OverloadClientStats s;
  if (budget_.has_value()) {
    s.budget_exhausted = budget_->exhausted();
    s.budget_tokens = budget_->tokens();
  }
  s.overloaded_replies = overloaded_replies_;
  for (const auto& [host, breaker] : breakers_) {
    (void)host;
    s.breaker_opens += breaker.opens();
    s.breaker_fast_fails += breaker.fast_fails();
    if (breaker.state() != CircuitBreaker::State::kClosed) ++s.breakers_open;
  }
  return s;
}

template <typename ReplyT, typename Invoke, typename ReplyBytes>
NfsResult<ReplyT> NfsClient::transact(NfsProc proc, net::HostId server,
                                      std::size_t request_bytes, Invoke&& invoke,
                                      ReplyBytes&& reply_bytes) {
  // RPCs cost real service-queue time, so background work never issues
  // one: it counts its traffic store-direct instead. run_until below
  // throws if this is called from inside an event callback.
  SpanScope span(network_->tracer(), rpc_span_name(proc), self_);
  if (span.active()) span.tag("server", std::to_string(server));
  const SimDuration start = network_->clock().now();
  // The synchronous API is a thin wrapper over the completion-based core:
  // submit the call, then drive the loop until its completion fires.
  std::optional<NfsResult<ReplyT>> final_reply;
  call_async<ReplyT>(proc_slot(proc), server, request_bytes, std::forward<Invoke>(invoke),
                     std::forward<ReplyBytes>(reply_bytes),
                     [&final_reply](NfsResult<ReplyT> r) { final_reply = std::move(r); });
  network_->loop().run_until([&final_reply] { return final_reply.has_value(); });
  assert(final_reply.has_value());
  NfsResult<ReplyT> reply =
      final_reply.has_value() ? *std::move(final_reply) : NfsResult<ReplyT>(NfsStat::kTimedOut);
  if (network_->metrics() != nullptr) {
    ProcMetrics& pm = proc_metrics(proc);
    pm.latency->record((network_->clock().now() - start).to_micros());
    (reply.ok() ? pm.ok : pm.error)->inc();
  }
  if (SimProfiler* prof = network_->profiler(); prof != nullptr) prof->note_op();
  if (!reply.ok()) span.status(to_string(reply.error()));
  return reply;
}

NfsResult<FileHandle> NfsClient::mount(net::HostId server) {
  return transact<FileHandle>(
      NfsProc::kMount, server, encode_mount_call(next_xid()).size(),
      [](NfsServer& s) -> NfsResult<FileHandle> { return s.root_handle(); },
      [](const NfsResult<FileHandle>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::lookup(FileHandle dir, std::string_view name) {
  return transact<HandleReply>(
      NfsProc::kLookup, dir.server,
      encode_diropargs_call(next_xid(), NfsProc::kLookup, dir, name).size(),
      [&](NfsServer& s) { return s.lookup(dir, name); },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::getattr(FileHandle obj) {
  return transact<fs::Attr>(
      NfsProc::kGetattr, obj.server,
      encode_handle_call(next_xid(), NfsProc::kGetattr, obj).size(),
      [&](NfsServer& s) { return s.getattr(obj); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::set_mode(FileHandle obj, std::uint32_t mode) {
  // SETATTR is non-idempotent on the wire: the retransmission carries the
  // same xid so the server's DRC answers an already-executed request.
  const std::uint32_t xid = next_xid();
  return transact<fs::Attr>(
      NfsProc::kSetattr, obj.server,
      encode_setattr_call(xid, obj, true, mode, false, 0).size(),
      [&](NfsServer& s) { return s.set_mode(obj, mode, rpc_ctx(xid)); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::truncate(FileHandle obj, std::uint64_t size) {
  const std::uint32_t xid = next_xid();
  return transact<fs::Attr>(
      NfsProc::kSetattr, obj.server,
      encode_setattr_call(xid, obj, false, 0, true, size).size(),
      [&](NfsServer& s) { return s.truncate(obj, size, rpc_ctx(xid)); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<ReadReply> NfsClient::read(FileHandle file, std::uint64_t offset,
                                     std::uint32_t count) {
  return transact<ReadReply>(
      NfsProc::kRead, file.server,
      encode_read_call(next_xid(), file, offset, count).size(),
      [&](NfsServer& s) { return s.read(file, offset, count); },
      [](const NfsResult<ReadReply>& r) {
        return kReplyBytes + (r.ok() ? r.value().data.size() : 0);
      });
}

NfsResult<std::uint32_t> NfsClient::write(FileHandle file, std::uint64_t offset,
                                          std::string_view data) {
  // WRITE is idempotent at a fixed offset, so no DRC context is needed:
  // re-execution stores the same bytes.
  return transact<std::uint32_t>(
      NfsProc::kWrite, file.server,
      encode_write_call(next_xid(), file, offset, data).size(),
      [&](NfsServer& s) { return s.write(file, offset, data); },
      [](const NfsResult<std::uint32_t>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::create(FileHandle dir, std::string_view name,
                                         std::uint32_t mode, std::uint32_t uid,
                                         std::uint32_t gid) {
  const std::uint32_t xid = next_xid();
  return transact<HandleReply>(
      NfsProc::kCreate, dir.server,
      encode_create_call(xid, NfsProc::kCreate, dir, name, mode, uid).size(),
      [&](NfsServer& s) { return s.create(dir, name, mode, uid, gid, rpc_ctx(xid)); },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::mkdir(FileHandle dir, std::string_view name,
                                        std::uint32_t mode, std::uint32_t uid,
                                        std::uint32_t gid) {
  const std::uint32_t xid = next_xid();
  return transact<HandleReply>(
      NfsProc::kMkdir, dir.server,
      encode_create_call(xid, NfsProc::kMkdir, dir, name, mode, uid).size(),
      [&](NfsServer& s) { return s.mkdir(dir, name, mode, uid, gid, rpc_ctx(xid)); },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::symlink(FileHandle dir, std::string_view name,
                                          std::string_view target) {
  const std::uint32_t xid = next_xid();
  return transact<HandleReply>(
      NfsProc::kSymlink, dir.server,
      encode_symlink_call(xid, dir, name, target).size(),
      [&](NfsServer& s) { return s.symlink(dir, name, target, rpc_ctx(xid)); },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<std::string> NfsClient::readlink(FileHandle link) {
  return transact<std::string>(
      NfsProc::kReadlink, link.server,
      encode_handle_call(next_xid(), NfsProc::kReadlink, link).size(),
      [&](NfsServer& s) { return s.readlink(link); },
      [](const NfsResult<std::string>& r) {
        return kReplyBytes + (r.ok() ? r.value().size() : 0);
      });
}

NfsResult<Unit> NfsClient::remove(FileHandle dir, std::string_view name) {
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRemove, dir.server,
      encode_diropargs_call(xid, NfsProc::kRemove, dir, name).size(),
      [&](NfsServer& s) { return s.remove(dir, name, rpc_ctx(xid)); },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<Unit> NfsClient::rmdir(FileHandle dir, std::string_view name) {
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRmdir, dir.server,
      encode_diropargs_call(xid, NfsProc::kRmdir, dir, name).size(),
      [&](NfsServer& s) { return s.rmdir(dir, name, rpc_ctx(xid)); },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<Unit> NfsClient::rename(FileHandle from_dir, std::string_view from_name,
                                  FileHandle to_dir, std::string_view to_name) {
  if (from_dir.server != to_dir.server) return NfsStat::kInval;
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRename, from_dir.server,
      encode_rename_call(xid, from_dir, from_name, to_dir, to_name).size(),
      [&](NfsServer& s) {
        return s.rename(from_dir, from_name, to_dir, to_name, rpc_ctx(xid));
      },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<ReaddirReply> NfsClient::readdir(FileHandle dir) {
  return transact<ReaddirReply>(
      NfsProc::kReaddir, dir.server,
      encode_handle_call(next_xid(), NfsProc::kReaddir, dir).size(),
      [&](NfsServer& s) { return s.readdir(dir); },
      [](const NfsResult<ReaddirReply>& r) {
        return kReplyBytes + (r.ok() ? r.value().entries.size() * 40 : 0);
      });
}

NfsResult<FsstatReply> NfsClient::fsstat(net::HostId server) {
  return transact<FsstatReply>(
      NfsProc::kFsstat, server,
      encode_handle_call(next_xid(), NfsProc::kFsstat, FileHandle{server, 1, 1}).size(),
      [&](NfsServer& s) { return s.fsstat(); },
      [](const NfsResult<FsstatReply>&) { return kReplyBytes; });
}

}  // namespace kosha::nfs
