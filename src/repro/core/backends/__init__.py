"""The decision engine every validation driver runs.

:mod:`~repro.core.backends.shardcore` holds Algorithm 1's collect → θτ →
decide loop (:class:`ShardCore`), driven in process by the sequential
validator and by each pipeline shard; :mod:`~repro.core.backends.frames`
holds the batch/verdict records of :meth:`ShardCore.process`.
"""
