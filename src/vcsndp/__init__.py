"""Vertex-connectivity survivable network design via randomized reduction
to element-connectivity subproblems, with certified solving and verification.

The package exports nothing itself: callers import its modules, such as
`vcsndp.pipeline` or `vcsndp.instance`."""
