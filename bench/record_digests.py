"""Record the sha256 of every item output whose bytes are pinned: each
catalog entry, and each search36 sample over the default field f32003.

    python3 bench/record_digests.py > bench/digests.json

Run it only at a commit whose outputs are known to be right; the benchmark
then fails any item whose output bytes change.
"""

import hashlib
import json

from worker import import_cihom

import_cihom()
from workloads import Catalog, Search36  # noqa: E402

digests = {}
for wl in (Catalog(seed=1), Search36(seed=1)):
    outs = [wl.run(item) for item in wl.build_pass()]
    errors = [err for _, err in outs if err is not None]
    if errors:
        raise SystemExit(f"{wl.name}: {errors}")
    digests[wl.name] = {wl.digest_key: {wl.item_key(pos): hashlib.sha256(out).hexdigest()
                                        for pos, (out, _) in enumerate(outs)}}
print(json.dumps(digests, indent=2, sort_keys=True))
