"""Reference oracles: the simple scalar implementations that the
batched and trace-replay production paths must reproduce bit for bit."""
