// Fixture: cross-shard work routed through the channel API and immutable
// statics are fine in shardable simulation code.
void deliver(ShardScheduler& sched, double t, const PushSlot& slot) {
  sched.channelPush(1, t, slot, 7, noop());
}

int limit() {
  static const int kLimit = 64;
  return kLimit;
}
