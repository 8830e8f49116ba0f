"""``python -m repro.service.net <verb>``: another name for
``python -m repro.service <verb>``.

It stays while the repository benchmark (``perfbench/rpc.py``) starts its
server as ``python -m repro.service.net serve``.
"""

from ..__main__ import main

if __name__ == "__main__":
    raise SystemExit(main())
