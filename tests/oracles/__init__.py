"""Reference oracles: the simple scalar implementations that the
batched production paths must reproduce bit for bit."""
