"""Writers that clobber final paths readers may be mid-read on."""
import json
import os

from .store import Store


def save(store: Store, fingerprint, payload):
    path = store.cell_path(fingerprint)
    path.write_text(json.dumps(payload))  # IO201: torn-file window


def save_index(store: Store, rows):
    with open(store.root / "index.json", "w") as fh:  # IO201
        json.dump(rows, fh)


def save_raw(store: Store, fingerprint, payload):
    fd = os.open(store.cell_path(fingerprint), os.O_WRONLY | os.O_CREAT)  # IO201
    os.write(fd, payload)
    os.close(fd)
