"""`run_workers`: the threads of one call, shared by the hogwild epochs and
the glyph CNN's forward blocks."""
import threading


def run_workers(items, work, workers: int, name: str) -> None:
    """work(item) for each item of the iterable `items`, on the calling
    thread and `workers - 1` helper threads named `name`, started for this
    call. Each worker takes the next item under one lock, until none is
    left or something has raised: `work`, taking an item, or starting a
    helper. The first such exception is raised here, once every started
    helper has been joined, so no item runs after the call returns."""
    items, lock, errors, end = iter(items), threading.Lock(), [], object()

    def worker() -> None:
        try:
            while True:
                with lock:
                    item = end if errors else next(items, end)
                if item is end:
                    return
                work(item)
        except BaseException as exc:  # re-raised below, on the calling thread
            with lock:
                errors.append(exc)

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=worker, name=name)
            helper.start()
            helpers.append(helper)
    except BaseException as exc:
        with lock:
            errors.append(exc)
    worker()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
